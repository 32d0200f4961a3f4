"""Cochain spaces, their canonical bases, and coboundary matrix assembly.

A cochain of structural degree p takes p argument blocks plus one extra
vector; the final block couples with that vector into a fully skew group of
n slots.  Canonical bases enumerate strictly increasing index tuples in a
fixed lexicographic order, so assembled matrices are identical across runs.

A :class:`Cochain` is one integer row over the flat coordinates
``position(key) * target_dim + t`` of its spaces end to end, in the form of
a row of ``Matrix.ints``/``dens``, so equal cochains store equal rows.  A
cochain of the self or module complex lies on one space; one of a
morphism's complex on three (see ``morphisms.triple``).

Two coboundaries are assembled here: ``coboundary_matrix_self(alg, p)`` on
C^p(N, N) and ``coboundary_matrix_module(phi, m)`` on C^m(N, N') along a
``Morphism`` phi: N -> N'.  One formula builds both; the self-valued complex
is the module-valued one along the identity map.  ``TripleComplex`` couples
them.  Reports use the classical labelling H^r with r = p + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations, product
from math import comb, lcm, prod
from typing import TYPE_CHECKING, Optional

from .algebra import NLieAlgebra
from .errors import (
    BrokenComplex,
    DegreeMismatch,
    DimensionMismatch,
    InvalidAlgebra,
    InvalidMorphism,
)
from .linalg import Matrix, frac, int_columns, int_row, kernel_basis, lowest, quotient_data
from .tables import SignedTable, scaled, sort_sign

if TYPE_CHECKING:
    from .morphisms import Morphism

DomainKey = object  # int for degree 0, tuple of index tuples otherwise


@dataclass(frozen=True)
class CochainSpace:
    """Canonical coordinates for degree-``degree`` cochains on ``source``."""

    source: NLieAlgebra
    degree: int
    target_dim: int

    def __post_init__(self):
        if self.degree < 0:
            raise DegreeMismatch("cochain degree must be nonnegative")
        if self.target_dim < 1:
            raise DimensionMismatch(f"cochain target dimension must be at least 1, got {self.target_dim}")

    @cached_property
    def domain_keys(self) -> tuple:
        d, n, p = self.source.dim, self.source.arity, self.degree
        if p == 0:
            return tuple(range(d))
        wedges = list(combinations(range(d), n - 1))
        brackets = list(combinations(range(d), n))
        keys = []
        for blocks in product(wedges, repeat=p - 1):
            for k in brackets:
                keys.append(blocks + (k,))
        return tuple(keys)

    @cached_property
    def _key_pos(self) -> dict:
        return {k: i for i, k in enumerate(self.domain_keys)}

    @cached_property
    def dim(self) -> int:
        """len(domain_keys) * target_dim, counted without building the keys."""
        d, n, p = self.source.dim, self.source.arity, self.degree
        keys = comb(d, n - 1) ** (p - 1) * comb(d, n) if p else d
        return keys * self.target_dim

    def flat_index(self, key: DomainKey, t: int) -> int:
        return self._key_pos[key] * self.target_dim + t

    def zero(self) -> "Cochain":
        return Cochain.from_row((self,), {})


class Cochain:
    """A cochain on ``spaces``: the integer row ``row`` {flat index: int}
    over the positive denominator ``den``, in lowest terms, on the spaces
    end to end.  One space for the self and module complexes; the source,
    target and module spaces for a morphism's complex, the module space None
    at degree 0.  ``Cochain(space, coeffs)`` coerces {(domain key, target
    index): exact value} on one space, checking every key and index, a zero
    value's too."""

    __slots__ = ("spaces", "row", "den")

    def __init__(self, space: CochainSpace, coeffs: dict):
        flat = {}
        for (key, t), c in coeffs.items():
            if key not in space._key_pos or not (type(t) is int and 0 <= t < space.target_dim):
                raise DimensionMismatch(f"no coordinate ({key!r}, {t!r}) in the cochain space")
            flat[space.flat_index(key, t)] = c
        self.spaces = (space,)
        self.row, self.den = int_row(flat, space.dim)

    @classmethod
    def from_row(cls, spaces: tuple, row: dict, den: int = 1) -> "Cochain":
        """The cochain of an integer row over ``den`` on ``spaces``, already in
        lowest terms and in range: kept as it is, with no copy and no check."""
        c = cls.__new__(cls)
        c.spaces, c.row, c.den = spaces, row, den
        return c

    @property
    def space(self) -> CochainSpace:
        return self.spaces[0]

    @property
    def degree(self) -> int:
        return self.spaces[0].degree

    @property
    def parts(self) -> tuple:
        """One cochain per space, read off the row; None for an absent space."""
        out, lo = [], 0
        for space in self.spaces:
            if space is None:
                out.append(None)
                continue
            part = {j - lo: v for j, v in self.row.items() if lo <= j < lo + space.dim}
            out.append(Cochain.from_row((space,), *lowest(part, self.den)))
            lo += space.dim
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.row

    def scale(self, c) -> "Cochain":
        c = frac(c)
        row = {j: c.numerator * v for j, v in self.row.items()} if c else {}
        return Cochain.from_row(self.spaces, *lowest(row, self.den * c.denominator))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and (self.spaces, self.den, self.row) == (other.spaces, other.den, other.row)
        )

    def __hash__(self) -> int:
        return hash((self.spaces, self.den, frozenset(self.row.items())))

    def __repr__(self) -> str:
        return f"Cochain(degree={self.degree}, spaces={len(self.spaces)}, nnz={len(self.row)})"


# ---------------------------------------------------------------------------
# Coboundary rows.  A canonical key (w_0, ..., w_(p-1), k) of degree p+1
# stands for the blocks e_w0, ..., e_w(p-1) and the n-wedge e_k.  A degree-p
# cochain f is read on p-1 blocks and an n-wedge, or, written f(..; e_j), on
# p blocks and a vector.  With D(w) the action of e_w on a wedge slot by
# slot, rho(u) the target map [phi e_u, -], and "\i" dropping block i, the
# coboundary at that key is
#
#   sum_i (-1)^(i+1) [ sum_(i<j) f(\i, D(w_i) w_j at j, k) + f(\i, D(w_i) k) ]
#   + (-1)^(p+1) f(w_0, ..., w_(p-1); [e_k])
#   + sum_i (-1)^i rho(w_i) f(\i, k)
#   + (-1)^p sum_r (-1)^(n-1-r) rho(k without k_r) f(w_0, ..., w_(p-1); e_(k_r)).
#
# The first line joins the bracket of two blocks with the action of a block
# on the extra vector.  The last joins the action on the cochain's value
# with the value put into each slot of the final wedge, moved to the last
# slot by skewness.  The self complex is the case phi = identity.
#
# The i = 0 terms are the action A_p(w_0) of e_w0 on the degree-p cochains,
# read at the rest of the key: -D(w_0) on each block and on the n-wedge,
# +rho(w_0) on the value.  With D(w)[u][v] the coefficient of e_v in
# D(w) e_u, on (n-1)- or n-wedges, and W the number of (n-1)-wedges,
#
#   A_0(w) = rho(w),   A_p(w) = -D(w) (x) I + I_W (x) A_(p-1)(w)   (p >= 1),
#
# with D = D_n at p = 1 and D_(n-1) above.  For p >= 1 a key is a first
# block w_0 and a key of one degree lower.  Every other term keeps w_0
# first and is the matching term of the coboundary out of degree p-1,
# applied to f(w_0; .), with one sign fewer: the n-Lie complex read as the
# Leibniz complex of Lambda^(n-1) g with coefficients in Hom(g, V)
# (Daletskii-Takhtajan 1997, Gautheron 1996).  So row (w, u, q) of delta_p
# is A_(p-1)(w)[q] in column block u, plus -D(w)[u][v] at (v, q), plus
# -iota_w(delta_(p-1)[(u, q)]), with iota_w reading a coordinate of f as
# one of f(w; .).  For p >= 2, iota_w is the shift by w column blocks.  At
# p = 1, f(w; e_j) is the sign of sorting w + (j,) times f at that
# n-wedge, and zero when j is in w: a signed wedge map of the columns.
# Each degree is built from the int rows of delta_(p-1) and of the
# A_(p-1)(w), over ``_Tables.den``; the A_p of the requested degree are
# never stored.  The tower hands back the rows of delta_(p-1) it built on
# the way, so H^r takes delta_(r-2) from delta_(r-1)'s build.  Only
# delta_0, with no i = 0 term, is summed key by key.


def _derivation(sign, table: SignedTable, w: tuple, u: tuple) -> dict:
    """e_w acting on the wedge e_u slot by slot, over increasing wedges."""
    out: dict = {}
    for slot, i in enumerate(u):
        for j, c in table[w + (i,)].items():
            s, v = sign(u[:slot] + (j,) + u[slot + 1 :])
            if s:
                out[v] = out.get(v, 0) + s * c
    return {v: c for v, c in out.items() if c}


def _action(phi_cols: list, table: SignedTable, d_T: int, u: tuple) -> list[dict]:
    """Rows s of the target map t -> [phi e_u0, ..., phi e_u(n-2), e_t]."""
    rows = [[0] * d_T for _ in range(d_T)]
    for choice in product(*(phi_cols[i].items() for i in u)):  # expanded once for every t
        idxs, c = tuple(i for i, _ in choice), prod(x for _, x in choice)
        for t in range(d_T):
            for s, x in table[idxs + (t,)].items():
                rows[s][t] += c * x
    return [{t: x for t, x in enumerate(row) if x} for row in rows]


class _Tables:
    """Sparse structure data of one coboundary, keyed on basis indices.

    Built from the algebras' signed tables (``NLieAlgebra.ints``), which
    read a bracket at any ordering of its indices, and the columns of
    ``phi``, for the life of one requested matrix: the lower degrees of its
    tower (see above) share them.  The memoized functions close over each
    other, not over the instance, so no reference cycle keeps them alive
    after it.

    The tables hold ints, so each coboundary entry is an int over ``den``.
    With d_* the lcm of the denominators of the source constants, the target
    constants and phi, an action term (n - 1 entries of phi times a target
    constant) is an int over acted = d_tgt * d_phi^(n-1).  So den =
    lcm(d_src, acted), phi is read over d_phi, and the source and target
    tables are read through :func:`~nliecoh.tables.scaled` by den / d_src
    and den / acted: the algebra's own table when the factor is 1, so a
    self complex reads the algebra's own table for both.
    """

    def __init__(self, src: NLieAlgebra, tgt: NLieAlgebra, phi: Matrix):
        self.src = src
        self.tgt = tgt
        d_phi = lcm(*phi.dens)
        acted = tgt.den * d_phi ** (src.arity - 1)
        self.den = den = lcm(src.den, acted)
        phi_cols = int_columns(phi, d_phi)
        self.sign = cache(sort_sign)
        self.src_table = scaled(src.ints, den // src.den)
        self.derivation = cache(partial(_derivation, self.sign, self.src_table))
        self.action = cache(partial(_action, phi_cols, scaled(tgt.ints, den // acted), tgt.dim))
        self.wedges = list(combinations(range(src.dim), src.arity - 1))

    def minus_d(self, size: int) -> list[list[list]]:
        """-D(w) on the ``size``-wedges for each (n-1)-wedge w: its rows u as
        (v, c) pairs, wedges by position."""
        wedges = list(combinations(range(self.src.dim), size))
        pos = {u: a for a, u in enumerate(wedges)}
        return [
            [[(pos[v], -c) for v, c in self.derivation(w, u).items()] for u in wedges]
            for w in self.wedges
        ]

    def delta_0(self, d_T: int) -> list[dict]:
        """Int rows over ``den`` of delta_0, one per n-wedge k and target
        index: -f([e_k]) + sum_r (-1)^(n-1-r) rho(k without k_r) f(e_(k_r))."""
        n, out = self.src.arity, []
        for k in combinations(range(self.src.dim), n):
            rows = [{} for _ in range(d_T)]
            for j, c in self.src_table[k].items():
                for t, row in enumerate(rows):
                    _add(row, j * d_T + t, -c)
            for r in range(n):
                c = -1 if (n - 1 - r) % 2 else 1
                for row, arow in zip(rows, self.action(k[:r] + k[r + 1 :])):
                    for t, a in arow.items():
                        _add(row, k[r] * d_T + t, c * a)
            out += rows
        return out

    def wedge_map(self, space_1: CochainSpace, w: tuple, rows: list) -> list[dict]:
        """iota_w of degree-0 cochain rows: column (j, t) to (v, t) of
        ``space_1`` times s, where s, v sort w + (j,) (s = 0 for j in w)."""
        d_T, pos = space_1.target_dim, space_1._key_pos
        cols, signs = [], []
        for j in range(self.src.dim):
            s, v = self.sign(w + (j,))
            base = pos[(v,)] * d_T if s else 0
            cols += range(base, base + d_T)
            signs += [s] * d_T
        return [{cols[j]: signs[j] * x for j, x in row.items() if signs[j]} for row in rows]


def _add(row: dict, j: int, x: int) -> None:
    """row[j] += x for a nonzero x, dropping the entry when it cancels."""
    y = row.get(j, 0) + x
    if y:
        row[j] = y
    else:
        del row[j]


def _action_rows(action: list, minus_d: list, lower=(), off: int = 0):
    """Rows (u, q) of -D(w) (x) I + I (x) A(w), from the rows u of -D(w)
    and the rows q of A(w): A_p(w) from A_(p-1)(w).  Given ``lower``, the
    rows of iota_w(delta_(p-1)) but for a shift by ``off`` columns, each
    also gets -lower[(u, q)] so shifted: the rows of block w of delta_p."""
    block = len(action)
    for u, du in enumerate(minus_d):
        cu = u * block
        du = [(v * block, c) for v, c in du]
        lows = lower[cu : cu + block]
        for q, arow in enumerate(action):
            row = {cu + j: x for j, x in arow.items()} if arow else {}
            for b, c in du:
                _add(row, b + q, c)
            for j, x in lows[q].items() if lows else ():
                _add(row, off + j, -x)
            yield row


def _tower(space_in: CochainSpace, tables: _Tables, keep: bool = False):
    """Int rows over ``den`` of the coboundary out of ``space_in``, those of
    the one out of degree p - 1 as a list (None at p = 0), and with ``keep``
    the rows of A_p(w) for each (n-1)-wedge w as lists.  Without ``keep``
    the rows above p = 0 come one by one and no A_p is built."""
    p, d_T = space_in.degree, space_in.target_dim
    if not p:
        actions = [tables.action(w) for w in tables.wedges] if keep else None
        return tables.delta_0(d_T), None, actions
    below = CochainSpace(space_in.source, p - 1, d_T)
    lower, _, lower_actions = _tower(below, tables, keep=True)
    if p == 1:  # iota_w a signed wedge map, D = D_n
        lowers = ((tables.wedge_map(space_in, w, lower), 0) for w in tables.wedges)
    else:  # iota_w a shift by w column blocks, D = D_(n-1)
        lowers = ((lower, w * below.dim) for w in range(len(tables.wedges)))
    pairs = list(zip(lower_actions, tables.minus_d(space_in.source.arity - (p > 1))))
    rows = (r for (a, d_w), lo in zip(pairs, lowers) for r in _action_rows(a, d_w, *lo))
    actions = [list(_action_rows(a, d_w)) for a, d_w in pairs] if keep else None
    return (list(rows) if keep else rows), lower, actions


def _assemble(space_in: CochainSpace, tables: _Tables, floor: Optional[list] = None) -> Matrix:
    """The coboundary out of ``space_in``.  Given a list ``floor`` and p >= 1,
    also appends the one out of degree p - 1 that the tower built on the
    way, on the same row objects: what a separate call would return."""
    rows, lower, _ = _tower(space_in, tables)
    src, p, d_T = space_in.source, space_in.degree, space_in.target_dim
    if floor is not None and lower is not None:
        below = CochainSpace(src, p - 1, d_T).dim
        floor.append(Matrix.from_ints(space_in.dim, below, lower, [tables.den] * space_in.dim))
    out = CochainSpace(src, p + 1, d_T).dim
    return Matrix.from_ints(out, space_in.dim, rows, [tables.den] * out)


def _require_valid_algebra(alg: NLieAlgebra) -> None:
    if not alg.report.is_valid:
        raise InvalidAlgebra(f"algebra {alg.name!r} fails the fundamental identity")


def coboundary_matrix_self(alg: NLieAlgebra, p: int, floor: Optional[list] = None) -> Matrix:
    """Matrix of the self-valued coboundary out of degree p, canonical bases.

    Columns follow the degree-p basis, rows the degree-(p+1) basis.  Given
    a list ``floor`` and p >= 1, the coboundary out of degree p - 1, which
    the tower builds on the way, is appended to it.
    """
    _require_valid_algebra(alg)
    tables = _Tables(alg, alg, Matrix.identity(alg.dim))
    return _assemble(CochainSpace(alg, p, alg.dim), tables, floor)


def require_valid_morphism(phi: Morphism) -> None:
    """The gate of the module complex and the cone: the source and target
    pass the fundamental identity, then the map the morphism equation."""
    _require_valid_algebra(phi.source)
    _require_valid_algebra(phi.target)
    if not phi.report.is_valid:
        key = phi.report.failures[0].key[0]
        raise InvalidMorphism(f"morphism equation fails on basis tuple {key}")


def coboundary_matrix_module(phi: Morphism, m: int, floor: Optional[list] = None) -> Matrix:
    """Matrix of the module-valued coboundary out of degree m along ``phi``;
    ``floor`` as for :func:`coboundary_matrix_self`."""
    require_valid_morphism(phi)
    src, tgt = phi.source, phi.target
    return _assemble(CochainSpace(src, m, tgt.dim), _Tables(src, tgt, phi.matrix), floor)


@dataclass(frozen=True)
class CohomologyReport:
    """Kernel/image/quotient data of one slot of a cochain complex.

    ``cocycles`` holds a basis of Z as rows in the form of
    :func:`~nliecoh.linalg.kernel_basis`; ``classes`` holds the rows of it
    that represent a basis of H.  Each row is a cochain's integer row.
    """

    dim_z: int
    dim_b: int
    dim_h: int
    cocycles: Matrix
    classes: Matrix


def cohomology(delta_in: Optional[Matrix], delta_out: Matrix) -> CohomologyReport:
    """Cohomology at the slot between an incoming and outgoing differential.

    ``delta_in`` is None at the bottom of a complex (no incoming map), in
    which case every cocycle class is its own representative.
    """
    if delta_in is not None:
        if delta_in.rows != delta_out.cols:
            raise DimensionMismatch("differentials do not compose")
        if not delta_out.mul(delta_in).is_zero():
            raise BrokenComplex("consecutive differentials do not compose to zero")
    z = kernel_basis(delta_out)
    b = Matrix.zero(0, delta_out.cols) if delta_in is None else delta_in.transpose()
    dim_h, classes = quotient_data(z, b)
    return CohomologyReport(z.rows, z.rows - dim_h, dim_h, z, classes)


def _cohomology_at(delta, r: int) -> CohomologyReport:
    """Classically labelled group H^r (r >= 1) of the complex whose degree-p
    differential is ``delta(p, floor)``, which appends the degree-(p-1) one
    to the list ``floor`` for p >= 1: one call per group."""
    if r < 1:
        raise DegreeMismatch("report degree starts at 1")
    floor: list = []
    delta_out = delta(r - 1, floor)
    return cohomology(floor[0] if floor else None, delta_out)


def self_cohomology(alg: NLieAlgebra, r: int) -> CohomologyReport:
    """Classically labelled group H^r of the self-valued complex (r >= 1)."""
    return _cohomology_at(partial(coboundary_matrix_self, alg), r)


def module_cohomology(phi: Morphism, r: int) -> CohomologyReport:
    """Classically labelled group H^r of the complex twisted by ``phi``."""
    return _cohomology_at(partial(coboundary_matrix_module, phi), r)
