"""Independent brute-force differentials used to cross-check matrix assembly.

Everything here re-derives evaluation from scratch: its own permutation
signs, its own multilinear bracket expansion, its own cochain evaluation by
full support enumeration as a linear form in the cochain's coefficients,
and row-by-row matrix construction from those forms.  No canonicalization
shortcuts from the package's assembly path are reused, so agreement is a
genuine two-route check.
"""

import json
from bisect import insort
from fractions import Fraction
from itertools import combinations, product

from nliecoh.cochains import Cochain, CochainSpace
from nliecoh.errors import DimensionMismatch, SubspaceViolation
from nliecoh.jsonio import dump_json
from nliecoh.linalg import Matrix, int_row, solve, vector


def unit(d, i):
    """The i-th standard basis vector of length d."""
    return tuple(Fraction(1 if j == i else 0) for j in range(d))


# -- Fraction views of integer rows --------------------------------------------
# The package holds every vector as an integer row {index: int} over one
# positive denominator: a row of ``Matrix.ints``/``dens`` and a ``Cochain``,
# on one space or a triple's three.  The tests read them here as dense Fraction tuples, or
# as {(domain key, target index): Fraction}, the coefficient tables a Cochain
# held before.


def dense(row, den, size):
    """The integer row ``row`` over ``den`` as a dense Fraction tuple."""
    zero = Fraction(0)
    return tuple(Fraction(row[j], den) if j in row else zero for j in range(size))


def dense_row(m, i):
    """Row i of a ``Matrix`` as a dense Fraction tuple."""
    return dense(m.ints[i], m.dens[i], m.cols)


def dense_rows(m):
    """Every row of a ``Matrix`` as a dense Fraction tuple."""
    return [dense_row(m, i) for i in range(m.rows)]


def column(m, j):
    """Column j of a package ``Matrix``."""
    return tuple(Fraction(r.get(j, 0), d) for r, d in zip(m.ints, m.dens))


def mul_vector(m, v):
    """m v for a dense vector of exact entries, summed entry by entry in
    Fractions; DimensionMismatch when the length is not m.cols."""
    if len(v) != m.cols:
        raise DimensionMismatch(f"vector length {len(v)} != cols {m.cols}")
    v = vector(v)
    return tuple(
        sum((Fraction(a, d) * v[j] for j, a in r.items()), Fraction(0))
        for r, d in zip(m.ints, m.dens)
    )


def solve_vector(m, b):
    """``linalg.solve`` for a dense right-hand side of exact entries: a dense
    Fraction solution, or None."""
    x = solve(m, *int_row(b, m.rows))
    return None if x is None else dense(*x, m.cols)


def as_flat(c):
    """A ``Cochain``'s flat coordinates as a dense Fraction tuple."""
    return dense(c.row, c.den, c.space.dim)


def coeffs(c):
    """A ``Cochain`` as {(domain key, target index): nonzero Fraction}."""
    keys, d_t = c.space.domain_keys, c.space.target_dim
    return {(keys[j // d_t], j % d_t): Fraction(v, c.den) for j, v in c.row.items()}


def vectorize(t):
    """A triple's flat coordinates, source, target and module
    parts end to end, as a dense Fraction tuple."""
    return dense(t.row, t.den, flat_size(t.spaces))


def flat_size(spaces):
    """The number of flat coordinates on ``spaces`` end to end, as a
    ``Cochain.spaces`` tuple holds them (None for an absent space)."""
    return sum(s.dim for s in spaces if s is not None)


def flat_cochain(spaces, flat):
    """The cochain on the tuple ``spaces`` with exact flat coordinates
    ``flat``, a dense sequence or a sparse {index: value}: one space for the
    self and module complexes, a morphism complex's three for a triple.
    ``int_row`` coerces and range-checks the coordinates."""
    return Cochain.from_row(spaces, *int_row(flat, flat_size(spaces)))


def cocycle_basis(rep):
    """The cocycle rows of a ``CohomologyReport`` as dense Fraction tuples."""
    return tuple(dense_rows(rep.cocycles))


def representatives(rep):
    """The representative rows of a ``CohomologyReport`` as dense tuples."""
    return tuple(dense_rows(rep.classes))


def perm_sort_sign(idxs):
    arr = list(idxs)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(arr)


def oracle_basis(table, idxs):
    """The bracket of basis vectors given in any order, read from the
    increasing keys of an int table by sorting them on every read: the sign
    of the sorting permutation times the stored value, empty on a repeated
    index or an absent key."""
    sign, key = perm_sort_sign(idxs)
    val = table.get(key, {}) if sign else {}
    return {t: sign * x for t, x in val.items()}


def oracle_bracket(alg, vectors):
    """Multilinear bracket by full expansion over the structure table."""
    table = dict(alg.structure)
    out = [Fraction(0)] * alg.dim
    supports = [[(i, c) for i, c in enumerate(v) if c] for v in vectors]
    for choice in product(*supports):
        idxs = tuple(i for i, _ in choice)
        sign, key = perm_sort_sign(idxs)
        if not sign:
            continue
        val = table.get(key)
        if not val:
            continue
        coeff = Fraction(sign)
        for _, c in choice:
            coeff *= c
        for t, x in enumerate(val):
            if x:
                out[t] += coeff * x
    return tuple(out)


def oracle_ad(alg, block, z):
    return oracle_bracket(alg, list(block) + [z])


def wedge_decompose(vectors):
    """Expand v1 ^ ... ^ vk over increasing basis wedges: {key: c}."""
    out = {}
    for choice in product(*([(i, c) for i, c in enumerate(v) if c] for v in vectors)):
        sign, key = perm_sort_sign(i for i, _ in choice)
        if sign:
            coeff = Fraction(sign)
            for _, c in choice:
                coeff *= c
            out[key] = out.get(key, 0) + coeff
    return {key: c for key, c in out.items() if c}


def naive_form(p, blocks, z):
    """Linear form of a degree-p cochain's value on raw argument blocks:
    {key: c} with f(blocks; z) = sum_key c * f(key).  Each free block, and
    the final block with z, is expanded over increasing wedges by support
    enumeration, and the key is one wedge from each."""
    if p == 0:
        return {i: c for i, c in enumerate(z) if c}
    assert len(blocks) == p
    groups = [list(b) for b in blocks[:-1]] + [list(blocks[-1]) + [z]]
    form = {}
    for choice in product(*(wedge_decompose(g).items() for g in groups)):
        coeff = Fraction(1)
        for _, c in choice:
            coeff *= c
        key = tuple(k for k, _ in choice)
        form[key] = form.get(key, 0) + coeff
    return form


def cochain_value(f, blocks, z):
    """f(blocks; z) of a ``Cochain`` on raw blocks of vectors: its
    coefficients contracted with ``naive_form``."""
    form, values = naive_form(f.space.degree, blocks, z), coeffs(f)
    return tuple(
        sum((c * values.get((key, t), 0) for key, c in form.items()), Fraction(0))
        for t in range(f.space.target_dim)
    )


def delta_value(delta, f, blocks, z):
    """(delta f)(blocks; z) for an assembled coboundary matrix ``delta``: its
    product with f's flat coordinates, read back as a cochain one degree up
    and evaluated on raw arguments."""
    space = CochainSpace(f.space.source, f.space.degree + 1, f.space.target_dim)
    return cochain_value(flat_cochain((space,), mul_vector(delta, as_flat(f))), blocks, z)


def raw_fundamental_bracket(alg, x_block, y_block):
    """Pairwise block bracket as a list of raw wedge summands."""
    summands = []
    for slot in range(len(y_block)):
        acted = oracle_ad(alg, x_block, y_block[slot])
        if any(acted):
            nb = tuple(y_block[:slot]) + (acted,) + tuple(y_block[slot + 1 :])
            summands.append((Fraction(1), nb))
    return summands


def oracle_delta_form(p, d_t, args, z, src, tgt=None, phi=None):
    """Coboundary of a generic degree-p cochain f at raw arguments, straight
    from the defining sums: row s is {(key, t): c} with
    delta(f)(args; z)_s = sum c * f(key)_t.

    ``tgt``/``phi`` absent means the self-valued complex.
    """
    module = phi is not None
    rows = [{} for _ in range(d_t)]

    def add_value(form, c):
        """c times the cochain's value with linear form ``form``."""
        for key, x in form.items():
            for s in range(d_t):
                rows[s][(key, s)] = rows[s].get((key, s), 0) + c * x

    def add_bracket(form, bracket, c):
        """c times ``bracket`` (linear) of the value with linear form ``form``."""
        for t in range(d_t):
            for s, y in enumerate(bracket(unit(d_t, t))):
                if y:
                    for key, x in form.items():
                        rows[s][(key, t)] = rows[s].get((key, t), 0) + c * x * y

    def phi_v(v):
        return mul_vector(phi, v) if module else v

    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            for c, nb in raw_fundamental_bracket(src, args[i], args[j]):
                new_args = list(args[:i]) + list(args[i + 1 : j]) + [nb] + list(args[j + 1 :])
                add_value(naive_form(p, new_args, z), Fraction((-1) ** (i + 1)) * c)
    for i in range(p + 1):
        rem = list(args[:i]) + list(args[i + 1 :])
        z2 = oracle_ad(src, args[i], z)
        add_value(naive_form(p, rem, z2), Fraction((-1) ** (i + 1)))
    bracket_alg = tgt if module else src
    for i in range(p + 1):
        rem = list(args[:i]) + list(args[i + 1 :])
        imgs = [phi_v(v) for v in args[i]]
        add_bracket(
            naive_form(p, rem, z),
            lambda w: oracle_bracket(bracket_alg, imgs + [w]),
            Fraction((-1) ** i),
        )
    last = args[-1]
    sign = Fraction((-1) ** p)
    imgs = [phi_v(v) for v in last]
    z_img = phi_v(z)
    for slot in range(len(last)):
        add_bracket(
            naive_form(p, list(args[:-1]), last[slot]),
            lambda w: oracle_bracket(bracket_alg, imgs[:slot] + [w] + imgs[slot + 1 :] + [z_img]),
            sign,
        )
    return rows


def oracle_delta_eval(psi, args, z, src, tgt=None, phi=None):
    """Numeric coboundary value: ``oracle_delta_form`` contracted with psi."""
    forms = oracle_delta_form(psi.space.degree, psi.space.target_dim, args, z, src, tgt, phi)
    values = coeffs(psi)
    return tuple(
        sum((c * values.get(k, 0) for k, c in form.items()), Fraction(0)) for form in forms
    )


def _domain_keys(d, n, p):
    if p == 0:
        return list(range(d))
    wedges = list(combinations(range(d), n - 1))
    brackets = list(combinations(range(d), n))
    keys = []
    for blocks in product(wedges, repeat=p - 1):
        for k in brackets:
            keys.append(blocks + (k,))
    return keys


def _canonical_input(d, n, key):
    blocks = [tuple(unit(d, i) for i in idx) for idx in key[:-1]]
    k = key[-1]
    blocks.append(tuple(unit(d, i) for i in k[: n - 1]))
    return blocks, unit(d, k[-1])


def oracle_matrix(src, p, tgt=None, phi=None):
    """Row-by-row coboundary matrix out of degree p: one ``oracle_delta_form``
    per canonical input of degree p + 1."""
    d, n = src.dim, src.arity
    d_t = tgt.dim if tgt is not None else d
    col_pos = {key: i for i, key in enumerate(_domain_keys(d, n, p))}
    row_keys = _domain_keys(d, n, p + 1)
    rows = []
    for key in row_keys:
        blocks, z = _canonical_input(d, n, key)
        for row in oracle_delta_form(p, d_t, blocks, z, src, tgt, phi):
            rows.append({col_pos[k] * d_t + t: c for (k, t), c in row.items() if c})
    return Matrix(len(rows), len(col_pos) * d_t, rows)


def oracle_rref(rows):
    """Dense Fraction Gauss-Jordan reference for the sparse kernel.

    Reduces ``rows`` (lists of Fraction) to reduced row echelon form and
    returns ``(reduced_rows, pivot_columns)`` with pivot rows first, zero
    rows last.  The input is not modified.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    pr = 0
    for pc in range(ncols):
        found = next((r for r in range(pr, nrows) if m[r][pc] != 0), -1)
        if found < 0:
            continue
        m[pr], m[found] = m[found], m[pr]
        piv_row = m[pr]
        inv = 1 / piv_row[pc]
        for c in range(pc, ncols):
            piv_row[c] *= inv
        for r in range(nrows):
            factor = m[r][pc]
            if r != pr and factor:
                row = m[r]
                for c in range(pc, ncols):
                    row[c] -= factor * piv_row[c]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return m, pivots


class RowSpace:
    """Incremental Fraction echelon accumulator for span membership and rank.

    The reference for ``linalg.quotient_data``, which runs on the integer
    kernel instead.
    """

    def __init__(self, vectors=()):
        self._rows = {}  # pivot column -> sparse row with unit pivot
        self._pivots = []  # ascending
        for v in vectors:
            self.add(v)

    @property
    def rank(self):
        return len(self._pivots)

    def _reduce(self, v):
        w = {j: Fraction(x) for j, x in enumerate(v) if x}
        for pc in self._pivots:
            c = w.get(pc)
            if c:
                for j, x in self._rows[pc].items():
                    y = w.get(j, Fraction(0)) - c * x
                    if y:
                        w[j] = y
                    else:
                        del w[j]
        return w

    def contains(self, v):
        return not self._reduce(v)

    def add(self, v):
        """Insert v; returns True when it enlarged the span."""
        w = self._reduce(v)
        if not w:
            return False
        pc = min(w)
        inv = 1 / w[pc]
        self._rows[pc] = {j: x * inv for j, x in w.items()}
        insort(self._pivots, pc)
        return True


def oracle_quotient(z_basis, b_basis):
    """``(dim, reps)`` of span(z_basis)/span(b_basis) by greedy insertion,
    raising SubspaceViolation for a b vector outside span(z_basis)."""
    zspace = RowSpace(z_basis)
    if not all(zspace.contains(b) for b in b_basis):
        raise SubspaceViolation("coboundary vector outside the cocycle span")
    acc = RowSpace(b_basis)
    dim = zspace.rank - acc.rank
    reps = [tuple(Fraction(x) for x in z) for z in z_basis if acc.add(z)]
    assert dim == len(reps)
    return dim, reps


# -- report bases ------------------------------------------------------------
# The route ``--basis`` reports took before they were written from integer
# rows: each row of a basis matrix as Fractions, a Cochain on one space or
# on three built from it, and its coefficients sorted by (domain key, target index).


def _fraction_text(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def written(obj):
    """``obj`` as ``jsonio.dump_json`` writes it, read back as plain dicts,
    lists and strings."""
    return json.loads(dump_json(obj))


def oracle_cochain_json(c, target_label="self"):
    """``written(jsonio.cochain_to_json(c))`` for the Cochain ``c``, by sorting."""

    def order(item):
        (key, t), _ = item
        return ((key,) if isinstance(key, int) else key), t

    entries = []
    for (key, t), q in sorted(coeffs(c).items(), key=order):
        if c.space.degree == 0:
            blocks, last = [], [key + 1]
        else:
            blocks = [[i + 1 for i in b] for b in key[:-1]]
            last = [i + 1 for i in key[-1]]
        entries.append(
            {"blocks": blocks, "last": last, "target_index": t + 1, "value": _fraction_text(q)}
        )
    return {"degree": c.space.degree, "target": target_label, "entries": entries}


def oracle_triple_json(t):
    """``written(jsonio.triple_to_json(t))`` for the triple ``t``."""
    c1, c2, c3 = t.parts
    return {
        "degree": t.degree,
        "c1": oracle_cochain_json(c1, "self"),
        "c2": oracle_cochain_json(c2, "self"),
        "c3": None if c3 is None else oracle_cochain_json(c3, "module"),
    }


def oracle_basis_json(m, space):
    """The report rows of the basis matrix ``m``: ``space`` is a CochainSpace
    for the self and module complexes, or a TripleComplex and its degree."""
    if isinstance(space, CochainSpace):
        return [oracle_cochain_json(flat_cochain((space,), v)) for v in dense_rows(m)]
    tc, deg = space
    return [oracle_triple_json(flat_cochain(tc.spaces(deg), v)) for v in dense_rows(m)]


# -- deformation equations --------------------------------------------------
# Dense reference loops for the order-by-order deformation equations: every
# bracket is evaluated on dense vectors, the base one through
# ``oracle_bracket`` and the higher orders through ``cochain_value``.


def _compositions(total, parts):
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


def oracle_bracket_order(da, i, *vectors):
    """Coefficient of the i-th parameter power on dense vectors."""
    if i == 0:
        return oracle_bracket(da.base, vectors)
    if i <= da.order:
        return cochain_value(da.terms[i - 1], [vectors[:-1]], vectors[-1])
    return tuple(Fraction(0) for _ in range(da.base.dim))


def _phi_order(dm, i):
    if 0 <= i <= dm.order:
        return dm.phi_terms[i]
    return Matrix.zero(dm.tgt_def.base.dim, dm.src_def.base.dim)


def _coeffs(key, total):
    return {(key, t): c for t, c in enumerate(total) if c}


def oracle_nambu_residual(da, s):
    """Order-s coefficient of the fundamental-identity defect."""
    alg = da.base
    n, d = alg.arity, alg.dim
    space = CochainSpace(alg, 2, d)
    coeffs = {}
    for key in space.domain_keys:
        xs = [unit(d, i) for i in key[0]]
        ys = [unit(d, i) for i in key[1]]
        total = [Fraction(0)] * d
        for k in range(s + 1):
            l = s - k
            if k > da.order or l > da.order:
                continue
            inner = oracle_bracket_order(da, k, *ys)
            lhs = oracle_bracket_order(da, l, *xs, inner)
            for t, c in enumerate(lhs):
                total[t] += c
            for i in range(n):
                acted = oracle_bracket_order(da, k, *xs, ys[i])
                term = oracle_bracket_order(da, l, *ys[:i], acted, *ys[i + 1 :])
                for t, c in enumerate(term):
                    total[t] -= c
        coeffs.update(_coeffs(key, total))
    return Cochain(space, coeffs)


def oracle_morphism_residual(dm, s):
    """Order-s defect of the map equation, as a module-valued cochain."""
    src, tgt = dm.src_def.base, dm.tgt_def.base
    n = src.arity
    space = CochainSpace(src, 1, tgt.dim)
    coeffs = {}
    for key in src.bracket_keys():
        args = [unit(src.dim, i) for i in key]
        total = [Fraction(0)] * tgt.dim
        for i in range(s + 1):
            j = s - i
            if i > dm.order or j > dm.order:
                continue
            val = mul_vector(_phi_order(dm, i), oracle_bracket_order(dm.src_def, j, *args))
            for t, c in enumerate(val):
                total[t] += c
        for j in range(min(s, dm.order) + 1):
            for split in _compositions(s - j, n):
                if any(i > dm.order for i in split):
                    continue
                imgs = [mul_vector(_phi_order(dm, i), a) for i, a in zip(split, args)]
                val = oracle_bracket_order(dm.tgt_def, j, *imgs)
                for t, c in enumerate(val):
                    total[t] -= c
        coeffs.update(_coeffs((key,), total))
    return Cochain(space, coeffs)


def oracle_algebra_obstruction(da, big_n):
    """Known part of the order-(N+1) fundamental identity, written with the
    last argument z split off: -[x1, [x2, z]] + [x2, [x1, z]] + the slot
    terms, summed over the pairs of orders k, l >= 1 with k + l = N + 1."""
    alg = da.base
    n, d = alg.arity, alg.dim
    space = CochainSpace(alg, 2, d)
    coeffs = {}
    for key in space.domain_keys:
        x1 = [unit(d, i) for i in key[0]]
        kt = key[1]
        x2 = [unit(d, i) for i in kt[: n - 1]]
        z = unit(d, kt[n - 1])
        total = [Fraction(0)] * d
        for k in range(1, big_n + 1):
            l = big_n + 1 - k
            if l < 1 or k > da.order or l > da.order:
                continue
            first = oracle_bracket_order(da, l, *x1, oracle_bracket_order(da, k, *x2, z))
            second = oracle_bracket_order(da, l, *x2, oracle_bracket_order(da, k, *x1, z))
            for t in range(d):
                total[t] += -first[t] + second[t]
            for i in range(n - 1):
                acted = oracle_bracket_order(da, k, *x1, x2[i])
                term = oracle_bracket_order(da, l, *x2[:i], acted, *x2[i + 1 :], z)
                for t, c in enumerate(term):
                    total[t] += c
        coeffs.update(_coeffs(key, total))
    return Cochain(space, coeffs)


def oracle_morphism_obstruction(dm, big_n):
    """Known part of the order-(N+1) map equation: every product of known
    terms, the unknown order-(N+1) ones left out."""
    src, tgt = dm.src_def.base, dm.tgt_def.base
    n = src.arity
    space = CochainSpace(src, 1, tgt.dim)
    coeffs = {}
    for key in src.bracket_keys():
        args = [unit(src.dim, i) for i in key]
        total = [Fraction(0)] * tgt.dim
        for i in range(1, big_n + 1):
            j = big_n + 1 - i
            if j < 1 or i > dm.order or j > dm.order:
                continue
            val = mul_vector(_phi_order(dm, i), oracle_bracket_order(dm.src_def, j, *args))
            for t, c in enumerate(val):
                total[t] += c
        for j in range(0, big_n + 1):
            if j > dm.order:
                continue
            for split in _compositions(big_n + 1 - j, n):
                if any(i > big_n or i > dm.order for i in split):
                    continue
                imgs = [mul_vector(_phi_order(dm, i), a) for i, a in zip(split, args)]
                val = oracle_bracket_order(dm.tgt_def, j, *imgs)
                for t, c in enumerate(val):
                    total[t] -= c
        coeffs.update(_coeffs((key,), total))
    return Cochain(space, coeffs)


# -- equivalent deformations ------------------------------------------------
# Series of matrices as lists of dense Fraction rows, one matrix per order.
# A formal automorphism is read straight off its ``terms``, and its inverse
# is the Neumann series sum_j (-(psi - 1))^j, not the package's recursion.


def _dense(m):
    return [list(r) for r in dense_rows(m)]


def _zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def _matadd(a, b):
    return [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)]


def _matmul(a, b):
    return [
        [sum((r[l] * b[l][j] for l in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for r in a
    ]


def _series_mul(a, b, k):
    out = []
    for s in range(k + 1):
        acc = _zeros(len(a[0]), len(b[0][0]))
        for i in range(s + 1):
            acc = _matadd(acc, _matmul(a[i], b[s - i]))
        out.append(acc)
    return out


def oracle_series(psi, k):
    """Terms 0..k of a formal automorphism as dense matrices."""
    d = psi.dim
    eye = [list(unit(d, i)) for i in range(d)]
    return [eye] + [_dense(psi.terms[i - 1]) if i <= psi.order else _zeros(d, d) for i in range(1, k + 1)]


def oracle_inverse(psi, k):
    """Terms 0..k of psi^-1 as the truncated Neumann series of 1 - psi."""
    ps = oracle_series(psi, k)
    minus = [_zeros(psi.dim, psi.dim)] + [[[-x for x in r] for r in m] for m in ps[1:]]
    power, total = ps[:1] + minus[:1] * k, ps[:1] + minus[:1] * k
    for _ in range(k):
        power = _series_mul(power, minus, k)
        total = [_matadd(x, y) for x, y in zip(total, power)]
    return total


def oracle_compose(a, b, k):
    """Terms 0..k of the composition a o b of two formal automorphisms."""
    return _series_mul(oracle_series(a, k), oracle_series(b, k), k)


def oracle_transform(dm, psi_src, psi_tgt):
    """The deformation equivalent to ``dm`` under the pair, order by order:
    the bracket terms psi mu (psi^-1 x ... x psi^-1) of the source and of the
    target, each {((key,), t): c} for orders 1..N, and the map terms
    psi_tgt phi psi_src^-1 as dense rows for orders 0..N."""
    k = dm.order

    def brackets(da, psi):
        d = da.base.dim
        ps, inv = oracle_series(psi, k), oracle_inverse(psi, k)
        out = []
        for s in range(1, k + 1):
            coeffs = {}
            for key in da.base.bracket_keys():
                total = [Fraction(0)] * d
                for a in range(s + 1):
                    for j in range(s - a + 1):
                        for split in _compositions(s - a - j, len(key)):
                            args = [tuple(row[i] for row in inv[b]) for b, i in zip(split, key)]
                            val = oracle_bracket_order(da, j, *args)
                            for t in range(d):
                                total[t] += sum(ps[a][t][r] * val[r] for r in range(d))
                coeffs.update(_coeffs((key,), total))
            out.append(coeffs)
        return out

    pt, inv = oracle_series(psi_tgt, k), oracle_inverse(psi_src, k)
    phi = [_dense(m) for m in dm.phi_terms]
    maps = []
    for s in range(k + 1):
        acc = _zeros(dm.tgt_def.base.dim, dm.src_def.base.dim)
        for a in range(s + 1):
            for i in range(s - a + 1):
                acc = _matadd(acc, _matmul(_matmul(pt[a], phi[i]), inv[s - a - i]))
        maps.append(acc)
    return brackets(dm.src_def, psi_src), brackets(dm.tgt_def, psi_tgt), maps


# -- dense block evaluation ---------------------------------------------------
# References on dense Fraction vectors for what the package reads from its
# integer tables: argument blocks, expanded by ``wedge_decompose``, the
# action of a block (through ``oracle_bracket``), the bracket of two blocks,
# a block's image under a morphism, and the pull map, whose mapped
# arguments are expanded over the target keys by ``naive_form``.


class FundamentalObject:
    """An argument block x1 ^ ... ^ x(n-1): its raw components, which the
    actions address slot by slot, and its expansion over increasing basis
    wedges, built on first use.  A linear combination of wedges carries
    only the expansion."""

    def __init__(self, components, dim=None):
        self.components = tuple(vector(v) for v in components)
        self.dim = len(self.components[0]) if dim is None else dim
        self.width = len(self.components)
        self._decomp = None

    @classmethod
    def from_basis(cls, dim, idxs):
        return cls([unit(dim, i) for i in idxs], dim)

    @classmethod
    def from_combination(cls, dim, width, combo):
        fo = cls.__new__(cls)
        fo.dim, fo.width, fo.components = dim, width, None
        fo._decomp = {key: Fraction(c) for key, c in combo.items() if c}
        return fo

    def decomposition(self):
        if self._decomp is None:
            self._decomp = wedge_decompose(self.components)
        return self._decomp

    def is_zero(self):
        return not self.decomposition()

    def __eq__(self, other):
        return (
            isinstance(other, FundamentalObject)
            and (self.dim, self.width) == (other.dim, other.width)
            and self.decomposition() == other.decomposition()
        )


def ad_action(alg, x, z):
    """[x1, ..., x(n-1), z], extended linearly over the wedge decomposition."""
    z = vector(z)
    if x.dim != alg.dim or len(z) != alg.dim or x.width != alg.arity - 1:
        raise DimensionMismatch("adjoint action shape mismatch")
    if x.components is not None:
        return oracle_ad(alg, x.components, z)
    out = [Fraction(0)] * alg.dim
    for key, coeff in x.decomposition().items():
        for t, v in enumerate(oracle_ad(alg, _units(alg.dim, key), z)):
            if v:
                out[t] += coeff * v
    return tuple(out)


def fundamental_bracket(alg, x, y):
    """Bracket on argument blocks: substitute the action of x into each y slot.

    Returns sum_i  y1 ^ ... ^ (ad x . y_i) ^ ... ^ y(n-1) in canonical form.
    """
    if x.dim != alg.dim or y.dim != alg.dim:
        raise DimensionMismatch("fundamental bracket dimension mismatch")
    w = alg.arity - 1
    combo = {}
    for xkey, xc in x.decomposition().items():
        for ykey, yc in y.decomposition().items():
            for i in range(w):
                acted = oracle_ad(alg, _units(alg.dim, xkey), unit(alg.dim, ykey[i]))
                for j, c in enumerate(acted):
                    if not c:
                        continue
                    sign, skey = perm_sort_sign(ykey[:i] + (j,) + ykey[i + 1 :])
                    if sign:
                        combo[skey] = combo.get(skey, Fraction(0)) + sign * xc * yc * c
    return FundamentalObject.from_combination(alg.dim, w, combo)


def _units(d, idxs):
    return [unit(d, i) for i in idxs]


def module_action(phi, x, z):
    """Action of a source block on the target through the morphism: the
    bracket of the mapped block components with z in the target."""
    z = vector(z)
    if len(z) != phi.target.dim or x.dim != phi.source.dim:
        raise DimensionMismatch("module action shape mismatch")
    if x.components is not None:
        return oracle_ad(phi.target, [mul_vector(phi.matrix, v) for v in x.components], z)
    out = [Fraction(0)] * phi.target.dim
    for key, c in x.decomposition().items():
        val = oracle_ad(phi.target, [column(phi.matrix, i) for i in key], z)
        for t, a in enumerate(val):
            if a:
                out[t] += c * a
    return tuple(out)


def wedge_image(phi, x):
    """Image of an argument block under the morphism, component-wise."""
    if x.components is not None:
        return FundamentalObject([mul_vector(phi.matrix, v) for v in x.components], dim=phi.target.dim)
    combo = {}
    for key, c in x.decomposition().items():
        for wkey, wc in wedge_decompose([column(phi.matrix, i) for i in key]).items():
            combo[wkey] = combo.get(wkey, Fraction(0)) + c * wc
    return FundamentalObject.from_combination(phi.target.dim, x.width, combo)


def oracle_pull_matrix(phi, m):
    """Pre-composition with the morphism, C^m(B, B) to C^m(A, B): each source
    key's canonical input mapped by phi, vector by vector, and expanded over
    the target keys by ``naive_form``."""
    src, tgt = phi.source, phi.target
    src_space, tgt_space = CochainSpace(src, m, src.dim), CochainSpace(tgt, m, tgt.dim)
    rows = []
    for key in src_space.domain_keys:
        blocks, z = _canonical_input(src.dim, src.arity, key) if m else ([], unit(src.dim, key))
        image = [[mul_vector(phi.matrix, v) for v in b] for b in blocks]
        form = naive_form(m, image, mul_vector(phi.matrix, z))
        rows += [{tgt_space.flat_index(k, s): c for k, c in form.items()} for s in range(tgt.dim)]
    return Matrix(len(rows), tgt_space.dim, rows)
