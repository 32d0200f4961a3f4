"""Truncated one-parameter deformations of algebras and morphisms.

A deformed algebra carries degree-1 cochain terms, one per power of the
parameter; a deformed morphism couples two such families with a series of
linear maps.  Everything here is order-by-order polynomial arithmetic
truncated at the working order, so no convergence questions arise.  Terms,
residuals, obstructions and witnesses are integer rows, as matrix rows are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import lcm
from typing import Optional, Sequence

from .algebra import Failure, NLieAlgebra, ValidationReport
from .cochains import Cochain, CochainSpace
from .errors import (
    ArityMismatch,
    DegreeMismatch,
    DimensionMismatch,
    NotValidated,
    ObstructionNotCocycle,
    OrderMismatch,
)
from .linalg import Matrix, int_columns, lowest, solve
from .morphisms import Morphism, triple, triple_complex
from .tables import SignedTable, dense, map_defects, nambu_defects, scaled, series_bracket


def degree1_space(alg: NLieAlgebra) -> CochainSpace:
    return CochainSpace(alg, 1, alg.dim)


def linear_map_cochain(space: CochainSpace, m: Matrix) -> Cochain:
    """The cochain whose value at the j-th domain key is column j of ``m``:
    at degree 0, the cochain of a plain linear map."""
    den, d_T = lcm(*m.dens), space.target_dim
    if (m.rows, m.cols) != (d_T, len(space.domain_keys)):
        raise DimensionMismatch("matrix shape does not fit the cochain space")
    # rows in lowest terms stay so over the lcm of their denominators
    rows = zip(m.ints, m.dens)
    row = {j * d_T + t: v * (den // d) for t, (r, d) in enumerate(rows) for j, v in r.items()}
    return Cochain.from_row((space,), row, den)


def cochain_matrix(c: Cochain) -> Matrix:
    """The matrix whose column j is the value of ``c`` at the j-th domain
    key: at degree 0, the plain linear map."""
    d_T = c.space.target_dim
    ints: list[dict] = [{} for _ in range(d_T)]
    for j, v in c.row.items():
        ints[j % d_T][j // d_T] = v
    return Matrix.from_ints(d_T, len(c.space.domain_keys), ints, [c.den] * d_T)


@dataclass(frozen=True)
class DeformedAlgebra:
    """Bracket family: the base bracket plus one degree-1 cochain per order."""

    base: NLieAlgebra
    order: int
    terms: tuple[Cochain, ...]

    def __post_init__(self):
        if self.order < 0:
            raise OrderMismatch("order must be nonnegative")
        if len(self.terms) != self.order:
            raise OrderMismatch(
                f"expected {self.order} bracket terms, got {len(self.terms)}"
            )
        want = degree1_space(self.base)
        for term in self.terms:
            if term.spaces != (want,):
                raise DegreeMismatch("bracket terms must be degree-1 self cochains")

    @classmethod
    def trivial(cls, base: NLieAlgebra, order: int) -> "DeformedAlgebra":
        space = degree1_space(base)
        return cls(base, order, tuple(space.zero() for _ in range(order)))

    @cached_property
    def den(self) -> int:
        """Lcm of the denominators of the base constants and of every term."""
        return lcm(self.base.den, *(term.den for term in self.terms))

    @cached_property
    def tables(self) -> tuple[SignedTable, ...]:
        """Bracket of each order 0..order as a signed table, the values ints
        over ``den``."""
        den, d = self.den, self.base.dim
        tables = [scaled(self.base.ints, den // self.base.den)]
        for term in self.terms:
            keys, f, table = term.space.domain_keys, den // term.den, SignedTable()
            for j, v in term.row.items():
                table.setdefault(keys[j // d][0], {})[j % d] = f * v
            tables.append(table)
        return tuple(tables)

    def truncated(self, order: int) -> "DeformedAlgebra":
        if order > self.order:
            raise OrderMismatch("cannot truncate upward")
        return DeformedAlgebra(self.base, order, self.terms[:order])


def nambu_residual(da: DeformedAlgebra, s: int) -> Cochain:
    """Order-s coefficient of the fundamental-identity defect, as a cochain.

    The zero cochain means the identity holds exactly at that order.
    """
    alg = da.base
    defects = nambu_defects(alg.dim, alg.arity, da.den, da.tables, s)
    return _defect_cochain(CochainSpace(alg, 2, alg.dim), defects)


def _defect_cochain(space: CochainSpace, defects) -> Cochain:
    """The cochain of the defects (domain key, {t: int}, den), one den for all."""
    pos, d_T, row, den = space._key_pos, space.target_dim, {}, 1
    for key, res, den in defects:
        row.update((pos[key] * d_T + t, c) for t, c in res.items())
    return Cochain.from_row((space,), *lowest(row, den))


@dataclass(frozen=True)
class DeformedMorphism:
    """A compatible triple: deformed source, deformed target, map series."""

    src_def: DeformedAlgebra
    tgt_def: DeformedAlgebra
    phi_terms: tuple[Matrix, ...]
    name: str = ""

    def __post_init__(self):
        src, tgt = self.src_def.base, self.tgt_def.base
        if src.arity != tgt.arity:
            raise ArityMismatch(f"source arity {src.arity} != target arity {tgt.arity}")
        if self.src_def.order != self.tgt_def.order:
            raise OrderMismatch("source and target truncation orders differ")
        if len(self.phi_terms) != self.order + 1:
            raise OrderMismatch(
                f"expected {self.order + 1} morphism terms, got {len(self.phi_terms)}"
            )
        for m in self.phi_terms:
            if (m.rows, m.cols) != (tgt.dim, src.dim):
                raise DimensionMismatch("morphism terms must map source to target")

    @property
    def order(self) -> int:
        return self.src_def.order

    @classmethod
    def trivial(cls, phi: Morphism, order: int) -> "DeformedMorphism":
        zero = Matrix.zero(phi.target.dim, phi.source.dim)
        return cls(
            DeformedAlgebra.trivial(phi.source, order),
            DeformedAlgebra.trivial(phi.target, order),
            (phi.matrix,) + (zero,) * order,
            phi.name,
        )

    @property
    def base_morphism(self) -> Morphism:
        return Morphism(
            self.src_def.base, self.tgt_def.base, self.phi_terms[0], self.name
        )

    @cached_property
    def report(self) -> ValidationReport:
        return validate_deformation(self)

    def validated_through(self, s: int) -> bool:
        return not any(f.order <= s for f in self.report.failures)

    def truncated(self, order: int) -> "DeformedMorphism":
        if order > self.order:
            raise OrderMismatch("cannot truncate upward")
        return DeformedMorphism(
            self.src_def.truncated(order),
            self.tgt_def.truncated(order),
            self.phi_terms[: order + 1],
            self.name,
        )


def morphism_residual(dm: DeformedMorphism, s: int) -> Cochain:
    """Order-s defect of the map equation, as a module-valued cochain."""
    space = CochainSpace(dm.src_def.base, 1, dm.tgt_def.base.dim)
    return _defect_cochain(space, (((key,), res, den) for key, res, den in _map_defects(dm, s)))


def _map_defects(dm: DeformedMorphism, s: int):
    """Order-s map-equation defects of ``dm``, key by key."""
    src, tgt = dm.src_def, dm.tgt_def
    return map_defects(
        src.base.arity, dm.phi_terms, src.den, src.tables, tgt.den, tgt.tables, s
    )


def validate_deformation(dm: DeformedMorphism) -> ValidationReport:
    """Order-by-order check of both bracket families and the map equation."""
    failures: list[Failure] = []
    for s in range(dm.order + 1):
        for part, da in (("source", dm.src_def), ("target", dm.tgt_def)):
            alg = da.base
            for key, res, den in nambu_defects(alg.dim, alg.arity, da.den, da.tables, s):
                failures.append(Failure(part, s, key, dense(res, den, alg.dim)))
        d_tgt = dm.tgt_def.base.dim
        for key, res, den in _map_defects(dm, s):
            failures.append(Failure("morphism", s, (key,), dense(res, den, d_tgt)))
    return ValidationReport(dm.name or "deformation", "deformation", tuple(failures))


def _require_validated(dm: DeformedMorphism, through: int) -> None:
    if dm.order < through:
        raise NotValidated(f"deformation order {dm.order} below {through}")
    if not dm.validated_through(through):
        bad = [f for f in dm.report.failures if f.order <= through]
        raise NotValidated(
            f"deformation fails validation at orders {sorted({f.order for f in bad})}"
        )


def infinitesimal(dm: DeformedMorphism) -> tuple[Cochain, bool]:
    """First-order triple of a deformation and its cocycle verdict."""
    _require_validated(dm, 1)
    phi = dm.base_morphism
    tc = triple_complex(phi)
    c3_space = CochainSpace(phi.source, 0, phi.target.dim)
    theta = triple(
        dm.src_def.terms[0], dm.tgt_def.terms[0], linear_map_cochain(c3_space, dm.phi_terms[1])
    )
    return theta, tc.is_cocycle(theta)


def obstruction(dm: DeformedMorphism) -> Cochain:
    """Known part of the next-order equations, collected as a degree-2 triple.

    It is the order-(N+1) defect of the order-N family itself, with the two
    bracket parts negated.  The returned triple is always a cocycle; the
    deformation extends one order further exactly when it is also a
    coboundary.
    """
    _require_validated(dm, dm.order)
    s = dm.order + 1
    return triple(
        nambu_residual(dm.src_def, s).scale(-1),
        nambu_residual(dm.tgt_def, s).scale(-1),
        morphism_residual(dm, s),
    )


def extend_order(dm: DeformedMorphism) -> Optional[Cochain]:
    """Next-order correction triple, when one exists.

    Solves the linear system identifying the coboundary of the unknown
    next-order terms with the obstruction; returns None when the
    obstruction class is nonzero.
    """
    _require_validated(dm, dm.order)
    ob = obstruction(dm)
    tc = triple_complex(dm.base_morphism)
    if not tc.is_cocycle(ob):
        raise ObstructionNotCocycle("obstruction fails its cocycle identity")
    x = solve(tc.delta_matrix(1), ob.row, ob.den)
    return None if x is None else Cochain.from_row(tc.spaces(1), *x)


def extend_deformation(dm: DeformedMorphism, theta: Cochain) -> DeformedMorphism:
    """Append a degree-1 triple as the next-order terms."""
    if len(theta.spaces) != 3 or theta.degree != 1:
        raise DegreeMismatch("extension terms form a degree-1 triple")
    c1, c2, c3 = theta.parts
    return DeformedMorphism(
        DeformedAlgebra(dm.src_def.base, dm.order + 1, dm.src_def.terms + (c1,)),
        DeformedAlgebra(dm.tgt_def.base, dm.order + 1, dm.tgt_def.terms + (c2,)),
        dm.phi_terms + (cochain_matrix(c3),),
        dm.name,
    )


@dataclass(frozen=True)
class FormalAutomorphism:
    """Series of endomorphisms with identity constant term, hence invertible."""

    dim: int
    order: int
    terms: tuple[Matrix, ...]  # terms[i] multiplies the (i+1)-st power

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"automorphism dimension must be at least 1, got {self.dim}")
        if self.order < 0:
            raise OrderMismatch(f"automorphism order must be nonnegative, got {self.order}")
        if len(self.terms) != self.order:
            raise OrderMismatch(f"expected {self.order} terms, got {len(self.terms)}")
        for m in self.terms:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise DimensionMismatch("automorphism terms must be square")

    @classmethod
    def identity(cls, dim: int, order: int = 0) -> "FormalAutomorphism":
        return cls(dim, order, tuple(Matrix.zero(dim, dim) for _ in range(order)))

    @classmethod
    def from_first_order(cls, m: Matrix) -> "FormalAutomorphism":
        return cls(m.rows, 1, (m,))

    def term(self, i: int) -> Matrix:
        if i == 0:
            return Matrix.identity(self.dim)
        if i <= self.order:
            return self.terms[i - 1]
        return Matrix.zero(self.dim, self.dim)

    def series(self, k: int) -> list[Matrix]:
        """Terms 0..k."""
        return [self.term(i) for i in range(k + 1)]


def _product_term(a: Sequence[Matrix], b: Sequence[Matrix], s: int) -> Matrix:
    """Order-s term sum_i a[i] b[s - i] of the product of two series of
    matrices, a term past the end of either list counting as zero."""
    lo, hi = max(0, s - len(b) + 1), min(s, len(a) - 1)
    return reduce(Matrix.add, (a[i].mul(b[s - i]) for i in range(lo, hi + 1)))


def formal_inverse(psi: FormalAutomorphism, k: int) -> FormalAutomorphism:
    """Series inverse modulo the (k+1)-st power of the parameter:
    inv_m = -sum_(i >= 1) psi_i inv_(m-i)."""
    terms, inv = psi.series(k), [Matrix.identity(psi.dim)]
    for m in range(1, k + 1):
        inv.append(_product_term(terms, inv, m).scale(-1))
    return FormalAutomorphism(psi.dim, k, tuple(inv[1:]))


def compose_series(a: FormalAutomorphism, b: FormalAutomorphism, k: int) -> FormalAutomorphism:
    """Truncated composition a o b of endomorphism series."""
    if a.dim != b.dim:
        raise DimensionMismatch("series dimensions differ")
    a_terms, b_terms = a.series(k), b.series(k)
    terms = tuple(_product_term(a_terms, b_terms, s) for s in range(1, k + 1))
    return FormalAutomorphism(a.dim, k, terms)


def apply_automorphism(
    dm: DeformedMorphism, psi_src: FormalAutomorphism, psi_tgt: FormalAutomorphism
) -> DeformedMorphism:
    """Equivalent deformation obtained by conjugating with the given pair.

    The source bracket is conjugated by psi_src, the target bracket by
    psi_tgt, and the map series becomes psi_tgt o phi o psi_src^{-1}, all
    truncated at the deformation's order.
    """
    if psi_src.dim != dm.src_def.base.dim or psi_tgt.dim != dm.tgt_def.base.dim:
        raise DimensionMismatch("automorphism dimensions do not fit")
    k = dm.order
    inv_src, inv_tgt = formal_inverse(psi_src, k).series(k), formal_inverse(psi_tgt, k).series(k)
    tgt_terms = psi_tgt.series(k)
    pulled = [_product_term(dm.phi_terms, inv_src, s) for s in range(k + 1)]
    return DeformedMorphism(
        _conjugate_brackets(dm.src_def, psi_src.series(k), inv_src),
        _conjugate_brackets(dm.tgt_def, tgt_terms, inv_tgt),
        tuple(_product_term(tgt_terms, pulled, s) for s in range(k + 1)),
        dm.name,
    )


def _conjugate_brackets(
    da: DeformedAlgebra, psi: list[Matrix], inv: list[Matrix]
) -> DeformedAlgebra:
    """The family psi o mu o (psi^-1)^(x n), each order a matrix with one
    column per basis n-tuple."""
    alg, keys = da.base, da.base.bracket_keys()
    d_inv = lcm(*(d for m in inv for d in m.dens))
    cols = [int_columns(m, d_inv) for m in inv]
    # one table factor and n inverse columns per summand
    dens = [da.den * d_inv**alg.arity] * len(keys)
    pushed = []
    for s in range(da.order + 1):
        rows = [series_bracket(da.tables, cols, key, s) for key in keys]
        pushed.append(Matrix.from_ints(len(keys), alg.dim, rows, dens).transpose())
    space = degree1_space(alg)
    terms = (linear_map_cochain(space, _product_term(psi, pushed, s)) for s in range(1, da.order + 1))
    return DeformedAlgebra(alg, da.order, tuple(terms))


def first_order_equivalence(
    dm_a: DeformedMorphism, dm_b: DeformedMorphism
) -> Optional[tuple[FormalAutomorphism, FormalAutomorphism]]:
    """Order-1 automorphism pair carrying one infinitesimal onto the other.

    Solves the linear cohomologous-class condition on the two degree-1
    triples; returns None when their classes differ.
    """
    theta_a, _ = infinitesimal(dm_a)
    theta_b, _ = infinitesimal(dm_b)
    phi = dm_a.base_morphism
    if phi.matrix != dm_b.base_morphism.matrix:
        raise DimensionMismatch("deformations of different base morphisms")
    tc = triple_complex(phi)
    witness = tc.cohomologous(theta_a, theta_b)
    if witness is None:
        return None
    c1, c2, _ = witness.parts
    return (
        FormalAutomorphism.from_first_order(cochain_matrix(c1)),
        FormalAutomorphism.from_first_order(cochain_matrix(c2)),
    )
