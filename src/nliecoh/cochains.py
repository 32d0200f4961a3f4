"""Cochain spaces, their canonical bases, and coboundary matrix assembly.

A cochain of structural degree p takes p argument blocks plus one extra
vector; the final block couples with that vector into a fully skew group of
n slots.  Canonical bases enumerate strictly increasing index tuples in a
fixed lexicographic order, so assembled matrices are identical across runs.

Two coboundary operators are assembled here: the self-valued one on
C^p(N, N) and the module-valued one on C^m(N, N') twisted by a morphism.
Reports use the classical labelling H^r with r = p + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Optional, Sequence

from .algebra import FundamentalObject, NLieAlgebra, ad_action, fundamental_bracket, sort_sign
from .errors import (
    BrokenComplex,
    DegreeMismatch,
    DimensionMismatch,
    InvalidAlgebra,
    InvalidMorphism,
)
from .linalg import Matrix, Vector, frac, kernel_basis, quotient_data, vector

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

    @property
    def dim(self) -> int:
        return len(self.domain_keys) * self.target_dim

    def flat_index(self, key: DomainKey, t: int) -> int:
        return self._key_pos[key] * self.target_dim + t

    def zero(self) -> "Cochain":
        return Cochain(self, {})


class Cochain:
    """Coefficient table over a :class:`CochainSpace` canonical basis."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: CochainSpace, coeffs: dict):
        self.space = space
        clean = {}
        for (key, t), c in coeffs.items():
            c = frac(c)
            if c:
                if key not in space._key_pos:
                    raise DimensionMismatch(f"unknown domain key {key!r}")
                if not 0 <= t < space.target_dim:
                    raise DimensionMismatch(f"target index {t} out of range")
                clean[(key, t)] = c
        self.coeffs = clean

    @classmethod
    def from_flat(cls, space: CochainSpace, flat: Sequence) -> "Cochain":
        d_T = space.target_dim
        coeffs = {}
        for pos, key in enumerate(space.domain_keys):
            for t in range(d_T):
                c = frac(flat[pos * d_T + t])
                if c:
                    coeffs[(key, t)] = c
        return cls(space, coeffs)

    def as_flat(self) -> Vector:
        out = [Fraction(0)] * self.space.dim
        for (key, t), c in self.coeffs.items():
            out[self.space.flat_index(key, t)] = c
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "Cochain") -> "Cochain":
        if other.space != self.space:
            raise DegreeMismatch("cochain spaces differ")
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + c
        return Cochain(self.space, coeffs)

    def sub(self, other: "Cochain") -> "Cochain":
        return self.add(other.scale(-1))

    def scale(self, c) -> "Cochain":
        c = frac(c)
        return Cochain(self.space, {k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.space, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        return f"Cochain(degree={self.space.degree}, nnz={len(self.coeffs)})"

    def evaluate(
        self,
        blocks: Sequence[FundamentalObject],
        last: Optional[FundamentalObject],
        z: Sequence,
    ) -> Vector:
        """Value on (p-1) free blocks, a final block, and the extra vector.

        Degree-0 cochains take ``blocks=[]`` and ``last=None``.
        """
        z = vector(z)
        combo = eval_key_combo(self.space, list(blocks), last, z)
        out = [Fraction(0)] * self.space.target_dim
        for key, c in combo.items():
            for t in range(self.space.target_dim):
                v = self.coeffs.get((key, t))
                if v:
                    out[t] += c * v
        return tuple(out)

    def evaluate_vectors(self, *vectors_in: Sequence) -> Vector:
        """Degree-1 convenience: evaluate the skew n-linear map on vectors."""
        if self.space.degree != 1:
            raise DegreeMismatch("evaluate_vectors applies to degree-1 cochains")
        n = self.space.source.arity
        if len(vectors_in) != n:
            raise DimensionMismatch(f"expected {n} vector arguments")
        last = FundamentalObject(vectors_in[:-1], dim=self.space.source.dim)
        return self.evaluate([], last, vectors_in[-1])


def eval_key_combo(
    space: CochainSpace,
    blocks: Sequence[FundamentalObject],
    last: Optional[FundamentalObject],
    z: Vector,
) -> dict:
    """Decompose cochain arguments over the canonical domain basis.

    Returns {domain key: coefficient}; zero on any repeated index.
    """
    p = space.degree
    d = space.source.dim
    if len(z) != d:
        raise DimensionMismatch("argument vector has wrong dimension")
    if p == 0:
        if blocks or last is not None:
            raise DegreeMismatch("degree-0 cochains take no blocks")
        return {i: c for i, c in enumerate(z) if c}
    if last is None or len(blocks) != p - 1:
        raise DegreeMismatch(f"degree {p} needs {p - 1} blocks plus a final one")
    last_combo: dict[tuple[int, ...], Fraction] = {}
    for wkey, wc in last.decomposition().items():
        for j, zc in enumerate(z):
            if zc:
                sign, skey = sort_sign(wkey + (j,))
                if sign:
                    cur = last_combo.get(skey, Fraction(0)) + sign * wc * zc
                    if cur:
                        last_combo[skey] = cur
                    else:
                        last_combo.pop(skey, None)
    out: dict = {}

    def rec(i: int, prefix: tuple, coeff: Fraction) -> None:
        if i == len(blocks):
            for kkey, kc in last_combo.items():
                key = prefix + (kkey,)
                cur = out.get(key, Fraction(0)) + coeff * kc
                if cur:
                    out[key] = cur
                else:
                    out.pop(key, None)
            return
        for bkey, bc in blocks[i].decomposition().items():
            rec(i + 1, prefix + (bkey,), coeff * bc)

    rec(0, (), Fraction(1))
    return out


# ---------------------------------------------------------------------------
# Linear-in-the-cochain expressions: each target component is a sparse row of
# coefficients over the flat coordinates of a cochain space.


def _expr_zero(d_T: int) -> list[dict]:
    return [{} for _ in range(d_T)]


def _expr_from_combo(space: CochainSpace, combo: dict) -> list[dict]:
    out = _expr_zero(space.target_dim)
    for key, c in combo.items():
        pos = space._key_pos[key] * space.target_dim
        for t in range(space.target_dim):
            out[t][pos + t] = c
    return out


def _expr_accumulate(target: list[dict], source: list[dict], factor: Fraction) -> None:
    if not factor:
        return
    for tdict, sdict in zip(target, source):
        for col, c in sdict.items():
            cur = tdict.get(col, Fraction(0)) + factor * c
            if cur:
                tdict[col] = cur
            else:
                tdict.pop(col, None)


def _expr_apply_matrix(m: Matrix, expr: list[dict]) -> list[dict]:
    out = [{} for _ in range(m.rows)]
    for od, mrow in zip(out, m.data):
        for t, a in mrow.items():
            for col, c in expr[t].items():
                cur = od.get(col, Fraction(0)) + a * c
                if cur:
                    od[col] = cur
                else:
                    od.pop(col, None)
    return out


class _SelfContext:
    """Bracket data feeding the self-valued coboundary formula."""

    def __init__(self, alg: NLieAlgebra):
        self.alg = alg
        self.target_dim = alg.dim

    def fundamental_bracket(self, x, y):
        return fundamental_bracket(self.alg, x, y)

    def source_ad(self, x, z):
        return ad_action(self.alg, x, z)

    def action_matrix(self, x: FundamentalObject) -> Matrix:
        total = None
        for key, c in x.decomposition().items():
            m = self.alg.ad_matrix(key).scale(c)
            total = m if total is None else total.add(m)
        return total if total is not None else Matrix.zero(self.alg.dim, self.alg.dim)

    def slot_bracket_matrix(self, last: FundamentalObject, slot: int, z: Vector) -> Matrix:
        comps = last.components
        cols = []
        for t in range(self.alg.dim):
            args = list(comps)
            args[slot] = tuple(
                Fraction(1 if j == t else 0) for j in range(self.alg.dim)
            )
            cols.append(self.alg.bracket(*args, z))
        return Matrix.from_columns(cols)


class _ModuleContext:
    """Morphism-twisted data feeding the module-valued coboundary formula."""

    def __init__(self, src: NLieAlgebra, tgt: NLieAlgebra, phi: Matrix):
        self.src = src
        self.tgt = tgt
        self.phi = phi
        self.target_dim = tgt.dim
        self._action_cache: dict[tuple[int, ...], Matrix] = {}

    def map_vector(self, v: Vector) -> Vector:
        return self.phi.mul_vector(v)

    def fundamental_bracket(self, x, y):
        return fundamental_bracket(self.src, x, y)

    def source_ad(self, x, z):
        return ad_action(self.src, x, z)

    def _basis_action(self, key: tuple[int, ...]) -> Matrix:
        cached = self._action_cache.get(key)
        if cached is None:
            imgs = [self.phi.column(i) for i in key]
            cols = []
            for t in range(self.tgt.dim):
                unit = tuple(
                    Fraction(1 if j == t else 0) for j in range(self.tgt.dim)
                )
                cols.append(self.tgt.bracket(*imgs, unit))
            cached = Matrix.from_columns(cols)
            self._action_cache[key] = cached
        return cached

    def action_matrix(self, x: FundamentalObject) -> Matrix:
        total = None
        for key, c in x.decomposition().items():
            m = self._basis_action(key).scale(c)
            total = m if total is None else total.add(m)
        return total if total is not None else Matrix.zero(self.tgt.dim, self.tgt.dim)

    def slot_bracket_matrix(self, last: FundamentalObject, slot: int, z: Vector) -> Matrix:
        imgs = [self.map_vector(v) for v in last.components]
        phi_z = self.map_vector(z)
        cols = []
        for t in range(self.tgt.dim):
            args = list(imgs)
            args[slot] = tuple(
                Fraction(1 if j == t else 0) for j in range(self.tgt.dim)
            )
            cols.append(self.tgt.bracket(*args, phi_z))
        return Matrix.from_columns(cols)


def delta_expression(
    space: CochainSpace, ctx, args: Sequence[FundamentalObject], z: Vector
) -> list[dict]:
    """Coboundary of an unknown cochain, evaluated at raw argument blocks.

    ``args`` holds the p+1 blocks of the degree-(p+1) input; the result is
    linear in the unknown degree-p cochain and is returned per target
    component as sparse rows over the flat coordinates of ``space``.
    """
    p = space.degree
    n = space.source.arity
    if len(args) != p + 1:
        raise DegreeMismatch(f"expected {p + 1} argument blocks, got {len(args)}")
    out = _expr_zero(ctx.target_dim)

    def eval_expr(rem: list, zz: Vector) -> list[dict]:
        if p == 0:
            combo = eval_key_combo(space, [], None, zz)
        else:
            combo = eval_key_combo(space, rem[:-1], rem[-1], zz)
        return _expr_from_combo(space, combo)

    # pairwise bracket insertions
    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            fb = ctx.fundamental_bracket(args[i], args[j])
            new_args = list(args[:i]) + list(args[i + 1 : j]) + [fb] + list(args[j + 1 :])
            _expr_accumulate(out, eval_expr(new_args, z), Fraction((-1) ** (i + 1)))

    # action moved onto the extra vector
    for i in range(p + 1):
        z2 = ctx.source_ad(args[i], z)
        rem = list(args[:i]) + list(args[i + 1 :])
        _expr_accumulate(out, eval_expr(rem, z2), Fraction((-1) ** (i + 1)))

    # action applied to the cochain value
    for i in range(p + 1):
        rem = list(args[:i]) + list(args[i + 1 :])
        inner = eval_expr(rem, z)
        m = ctx.action_matrix(args[i])
        _expr_accumulate(out, _expr_apply_matrix(m, inner), Fraction((-1) ** i))

    # cochain value substituted into each slot of the final block
    last = args[-1]
    if last.components is None:
        raise DegreeMismatch("the final argument block must be a raw wedge")
    sign = Fraction((-1) ** p)
    rem = list(args[:-1])
    for slot in range(n - 1):
        inner = eval_expr(rem, last.components[slot])
        m = ctx.slot_bracket_matrix(last, slot, z)
        _expr_accumulate(out, _expr_apply_matrix(m, inner), sign)
    return out


def _canonical_args(
    alg: NLieAlgebra, key: tuple
) -> tuple[list[FundamentalObject], Vector]:
    """Raw blocks and extra vector for a canonical domain key (degree >= 1)."""
    n = alg.arity
    blocks = [FundamentalObject.from_basis(alg.dim, idx) for idx in key[:-1]]
    k = key[-1]
    blocks.append(FundamentalObject.from_basis(alg.dim, k[: n - 1]))
    z = tuple(Fraction(1 if j == k[n - 1] else 0) for j in range(alg.dim))
    return blocks, z


def _assemble(space_in: CochainSpace, space_out: CochainSpace, ctx) -> Matrix:
    rows: list[dict] = []
    for key in space_out.domain_keys:
        args, z = _canonical_args(space_in.source, key)
        rows += delta_expression(space_in, ctx, args, z)
    return Matrix.from_sparse(space_out.dim, space_in.dim, rows)


def _require_valid_algebra(alg: NLieAlgebra) -> None:
    if not alg.is_valid:
        raise InvalidAlgebra(f"algebra {alg.name!r} fails the fundamental identity")


def _require_morphism_matrix(src: NLieAlgebra, tgt: NLieAlgebra, phi: Matrix) -> None:
    if src.arity != tgt.arity:
        raise InvalidMorphism("source and target arity differ")
    if (phi.rows, phi.cols) != (tgt.dim, src.dim):
        raise InvalidMorphism(
            f"morphism matrix must be {tgt.dim}x{src.dim}, got {phi.rows}x{phi.cols}"
        )
    for key in src.bracket_keys():
        lhs = phi.mul_vector(src.bracket_on_basis(key))
        rhs = tgt.bracket(*(phi.column(i) for i in key))
        if lhs != rhs:
            raise InvalidMorphism(f"morphism equation fails on basis tuple {key}")


def _phi_matrix(phi) -> Matrix:
    return phi.matrix if hasattr(phi, "matrix") else phi


def coboundary_matrix_self(alg: NLieAlgebra, p: int) -> Matrix:
    """Matrix of the self-valued coboundary out of degree p, canonical bases.

    Columns follow the degree-p basis, rows the degree-(p+1) basis.
    """
    _require_valid_algebra(alg)
    space_in = CochainSpace(alg, p, alg.dim)
    space_out = CochainSpace(alg, p + 1, alg.dim)
    return _assemble(space_in, space_out, _SelfContext(alg))


def coboundary_matrix_module(
    src: NLieAlgebra, tgt: NLieAlgebra, phi, m: int
) -> Matrix:
    """Matrix of the module-valued coboundary out of degree m via a morphism."""
    _require_valid_algebra(src)
    _require_valid_algebra(tgt)
    mat = _phi_matrix(phi)
    _require_morphism_matrix(src, tgt, mat)
    space_in = CochainSpace(src, m, tgt.dim)
    space_out = CochainSpace(src, m + 1, tgt.dim)
    return _assemble(space_in, space_out, _ModuleContext(src, tgt, mat))


def coboundary_apply_self(
    alg: NLieAlgebra,
    f: Cochain,
    args: Sequence[FundamentalObject],
    z: Sequence,
) -> Vector:
    """Numeric coboundary value of a concrete self-valued cochain."""
    expr = delta_expression(f.space, _SelfContext(alg), list(args), vector(z))
    return _contract(expr, f)


def coboundary_apply_module(
    src: NLieAlgebra,
    tgt: NLieAlgebra,
    phi,
    f: Cochain,
    args: Sequence[FundamentalObject],
    z: Sequence,
) -> Vector:
    """Numeric coboundary value of a concrete module-valued cochain."""
    ctx = _ModuleContext(src, tgt, _phi_matrix(phi))
    expr = delta_expression(f.space, ctx, list(args), vector(z))
    return _contract(expr, f)


def _contract(expr: list[dict], f: Cochain) -> Vector:
    flat = f.as_flat()
    return tuple(
        sum((c * flat[col] for col, c in row.items()), Fraction(0)) for row in expr
    )


@dataclass(frozen=True)
class CohomologyReport:
    """Kernel/image/quotient data of one slot of a cochain complex."""

    dim_z: int
    dim_b: int
    dim_h: int
    cocycle_basis: tuple[Vector, ...]
    representatives: tuple[Vector, ...]


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
    z_basis = kernel_basis(delta_out)
    if delta_in is None:
        b_basis: list[Vector] = []
    else:
        b_basis = [
            delta_in.column(j)
            for j in range(delta_in.cols)
        ]
    dim_h, reps = quotient_data(z_basis, b_basis)
    dim_b = (len(z_basis) - dim_h)
    return CohomologyReport(
        dim_z=len(z_basis),
        dim_b=dim_b,
        dim_h=dim_h,
        cocycle_basis=tuple(z_basis),
        representatives=tuple(reps),
    )


def self_cohomology(alg: NLieAlgebra, r: int) -> CohomologyReport:
    """Classically labelled group H^r of the self-valued complex (r >= 1)."""
    if r < 1:
        raise DegreeMismatch("report degree starts at 1")
    p = r - 1
    delta_out = coboundary_matrix_self(alg, p)
    delta_in = coboundary_matrix_self(alg, p - 1) if p >= 1 else None
    return cohomology(delta_in, delta_out)


def module_cohomology(src: NLieAlgebra, tgt: NLieAlgebra, phi, r: int) -> CohomologyReport:
    """Classically labelled group H^r of the morphism-twisted complex."""
    if r < 1:
        raise DegreeMismatch("report degree starts at 1")
    m = r - 1
    delta_out = coboundary_matrix_module(src, tgt, phi, m)
    delta_in = coboundary_matrix_module(src, tgt, phi, m - 1) if m >= 1 else None
    return cohomology(delta_in, delta_out)
