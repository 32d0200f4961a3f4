"""Truncated one-parameter deformations of algebras and morphisms.

A deformed algebra carries degree-1 cochain terms, one per power of the
parameter; a deformed morphism couples two such families with a series of
linear maps.  Everything here is order-by-order polynomial arithmetic
truncated at the working order, so no convergence questions arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .algebra import NLieAlgebra, ValidationReport
from .cochains import Cochain, CochainSpace
from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    NotValidated,
    ObstructionNotCocycle,
    OrderMismatch,
)
from .linalg import Matrix, Vector, basis_vector, solve, zero_vector
from .morphisms import CochainTriple, Morphism, triple_complex


def degree1_space(alg: NLieAlgebra) -> CochainSpace:
    return CochainSpace(alg, 1, alg.dim)


def linear_map_cochain(space: CochainSpace, m: Matrix) -> Cochain:
    """Degree-0 cochain wrapping a plain linear map."""
    if space.degree != 0:
        raise DegreeMismatch("expected a degree-0 space")
    if (m.rows, m.cols) != (space.target_dim, space.source.dim):
        raise DimensionMismatch("matrix shape does not fit the cochain space")
    return Cochain(space, {(i, t): c for t, row in enumerate(m.data) for i, c in row.items()})


def cochain_matrix(c: Cochain) -> Matrix:
    """Matrix of a degree-0 cochain (columns indexed by source basis)."""
    if c.space.degree != 0:
        raise DegreeMismatch("expected a degree-0 cochain")
    data: list[dict] = [{} for _ in range(c.space.target_dim)]
    for (i, t), v in c.coeffs.items():
        data[t][i] = v
    return Matrix.from_sparse(c.space.target_dim, c.space.source.dim, data)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
            if term.space != want:
                raise DegreeMismatch("bracket terms must be degree-1 self cochains")

    @classmethod
    def trivial(cls, base: NLieAlgebra, order: int) -> "DeformedAlgebra":
        space = degree1_space(base)
        return cls(base, order, tuple(space.zero() for _ in range(order)))

    def bracket_order(self, i: int, *vectors_in: Sequence) -> Vector:
        """Coefficient of the i-th parameter power on the given arguments."""
        if i == 0:
            return self.base.bracket(*vectors_in)
        if i <= self.order:
            return self.terms[i - 1].evaluate_vectors(*vectors_in)
        return zero_vector(self.base.dim)

    def truncated(self, order: int) -> "DeformedAlgebra":
        if order > self.order:
            raise OrderMismatch("cannot truncate upward")
        return DeformedAlgebra(self.base, order, self.terms[:order])


def nambu_residual(da: DeformedAlgebra, s: int) -> Cochain:
    """Order-s coefficient of the fundamental-identity defect, as a cochain.

    The zero cochain means the identity holds exactly at that order.
    """
    alg = da.base
    n = alg.arity
    space = CochainSpace(alg, 2, alg.dim)
    coeffs = {}
    for key in space.domain_keys:
        xt = key[0]
        kt = key[1]
        xs = [basis_vector(alg.dim, i) for i in xt]
        ys = [basis_vector(alg.dim, i) for i in kt]
        total = list(zero_vector(alg.dim))
        for k in range(s + 1):
            l = s - k
            if k > da.order or l > da.order:
                continue
            inner = da.bracket_order(k, *ys)
            lhs = da.bracket_order(l, *xs, inner)
            for t, c in enumerate(lhs):
                total[t] += c
            for i in range(n):
                acted = da.bracket_order(k, *xs, ys[i])
                term = da.bracket_order(l, *ys[:i], acted, *ys[i + 1 :])
                for t, c in enumerate(term):
                    total[t] -= c
        for t, c in enumerate(total):
            if c:
                coeffs[(key, t)] = c
    return Cochain(space, coeffs)


@dataclass(frozen=True)
class DeformationFailure:
    """One basis tuple where an order-by-order equation fails."""

    part: str  # "source", "target", or "morphism"
    order: int
    key: tuple
    residual: Vector


@dataclass(frozen=True)
class DeformedMorphism:
    """A compatible triple: deformed source, deformed target, map series."""

    src_def: DeformedAlgebra
    tgt_def: DeformedAlgebra
    phi_terms: tuple[Matrix, ...]
    name: str = ""

    def __post_init__(self):
        if self.src_def.order != self.tgt_def.order:
            raise OrderMismatch("source and target truncation orders differ")
        if len(self.phi_terms) != self.order + 1:
            raise OrderMismatch(
                f"expected {self.order + 1} morphism terms, got {len(self.phi_terms)}"
            )
        d, dp = self.src_def.base.dim, self.tgt_def.base.dim
        for m in self.phi_terms:
            if (m.rows, m.cols) != (dp, d):
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

    def phi_order(self, i: int) -> Matrix:
        if 0 <= i <= self.order:
            return self.phi_terms[i]
        return Matrix.zero(self.tgt_def.base.dim, self.src_def.base.dim)

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
    src = dm.src_def.base
    tgt = dm.tgt_def.base
    n = src.arity
    space = CochainSpace(src, 1, tgt.dim)
    coeffs = {}
    for key in src.bracket_keys():
        args = [basis_vector(src.dim, i) for i in key]
        total = list(zero_vector(tgt.dim))
        for i in range(s + 1):
            j = s - i
            if i > dm.order or j > dm.order:
                continue
            val = dm.phi_order(i).mul_vector(dm.src_def.bracket_order(j, *args))
            for t, c in enumerate(val):
                total[t] += c
        for j in range(min(s, dm.order) + 1):
            for split in _compositions(s - j, n):
                if any(i > dm.order for i in split):
                    continue
                imgs = [dm.phi_order(i).mul_vector(a) for i, a in zip(split, args)]
                val = dm.tgt_def.bracket_order(j, *imgs)
                for t, c in enumerate(val):
                    total[t] -= c
        for t, c in enumerate(total):
            if c:
                coeffs[((key,), t)] = c
    return Cochain(space, coeffs)


def validate_deformation(dm: DeformedMorphism) -> ValidationReport:
    """Order-by-order check of both bracket families and the map equation."""
    failures: list[DeformationFailure] = []
    for s in range(dm.order + 1):
        for part, da in (("source", dm.src_def), ("target", dm.tgt_def)):
            res = nambu_residual(da, s)
            for key in _failing_keys(res):
                failures.append(
                    DeformationFailure(part, s, key, _unit_residual(res, key))
                )
        res = morphism_residual(dm, s)
        for key in _failing_keys(res):
            failures.append(
                DeformationFailure("morphism", s, key, _unit_residual(res, key))
            )
    return ValidationReport(dm.name or "deformation", "deformation", tuple(failures))


def _failing_keys(c: Cochain) -> list:
    keys = sorted({key for (key, _t) in c.coeffs})
    return keys


def _unit_residual(c: Cochain, key) -> Vector:
    out = [Fraction(0)] * c.space.target_dim
    for t in range(c.space.target_dim):
        v = c.coeffs.get((key, t))
        if v:
            out[t] = v
    return tuple(out)


def _require_validated(dm: DeformedMorphism, through: int) -> None:
    if dm.order < through:
        raise NotValidated(f"deformation order {dm.order} below {through}")
    if not dm.validated_through(through):
        bad = [f for f in dm.report.failures if f.order <= through]
        raise NotValidated(
            f"deformation fails validation at orders {sorted({f.order for f in bad})}"
        )


def infinitesimal(dm: DeformedMorphism) -> tuple[CochainTriple, bool]:
    """First-order triple of a deformation and its cocycle verdict."""
    _require_validated(dm, 1)
    phi = dm.base_morphism
    tc = triple_complex(phi)
    c3_space = CochainSpace(phi.source, 0, phi.target.dim)
    theta = CochainTriple(
        1,
        dm.src_def.terms[0],
        dm.tgt_def.terms[0],
        linear_map_cochain(c3_space, dm.phi_terms[1]),
    )
    return theta, tc.is_cocycle(theta)


def obstruction(dm: DeformedMorphism) -> CochainTriple:
    """Known part of the next-order equations, collected as a degree-2 triple.

    The returned triple is always a cocycle; the deformation extends one
    order further exactly when it is also a coboundary.
    """
    _require_validated(dm, dm.order)
    big_n = dm.order
    ob1 = _algebra_obstruction(dm.src_def, big_n)
    ob2 = _algebra_obstruction(dm.tgt_def, big_n)
    ob3 = _morphism_obstruction(dm, big_n)
    return CochainTriple(2, ob1, ob2, ob3)


def _algebra_obstruction(da: DeformedAlgebra, big_n: int) -> Cochain:
    alg = da.base
    n = alg.arity
    space = CochainSpace(alg, 2, alg.dim)
    coeffs = {}
    for key in space.domain_keys:
        x1 = [basis_vector(alg.dim, i) for i in key[0]]
        kt = key[1]
        x2 = [basis_vector(alg.dim, i) for i in kt[: n - 1]]
        z = basis_vector(alg.dim, kt[n - 1])
        total = list(zero_vector(alg.dim))
        for k in range(1, big_n + 1):
            l = big_n + 1 - k
            if l < 1 or k > da.order or l > da.order:
                continue
            first = da.bracket_order(l, *x1, da.bracket_order(k, *x2, z))
            second = da.bracket_order(l, *x2, da.bracket_order(k, *x1, z))
            for t in range(alg.dim):
                total[t] += -first[t] + second[t]
            for i in range(n - 1):
                acted = da.bracket_order(k, *x1, x2[i])
                term = da.bracket_order(l, *x2[:i], acted, *x2[i + 1 :], z)
                for t, c in enumerate(term):
                    total[t] += c
        for t, c in enumerate(total):
            if c:
                coeffs[(key, t)] = c
    return Cochain(space, coeffs)


def _morphism_obstruction(dm: DeformedMorphism, big_n: int) -> Cochain:
    src = dm.src_def.base
    tgt = dm.tgt_def.base
    n = src.arity
    space = CochainSpace(src, 1, tgt.dim)
    coeffs = {}
    for key in src.bracket_keys():
        args = [basis_vector(src.dim, i) for i in key]
        total = list(zero_vector(tgt.dim))
        for i in range(1, big_n + 1):
            j = big_n + 1 - i
            if j < 1 or i > dm.order or j > dm.order:
                continue
            val = dm.phi_order(i).mul_vector(dm.src_def.bracket_order(j, *args))
            for t, c in enumerate(val):
                total[t] += c
        for j in range(0, big_n + 1):
            if j > dm.order:
                continue
            for split in _compositions(big_n + 1 - j, n):
                if any(i > big_n for i in split):
                    continue  # indices above the known orders are unknowns
                if any(i > dm.order for i in split):
                    continue
                imgs = [dm.phi_order(i).mul_vector(a) for i, a in zip(split, args)]
                val = dm.tgt_def.bracket_order(j, *imgs)
                for t, c in enumerate(val):
                    total[t] -= c
        for t, c in enumerate(total):
            if c:
                coeffs[((key,), t)] = c
    return Cochain(space, coeffs)


def extend_order(dm: DeformedMorphism) -> Optional[CochainTriple]:
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
    x = solve(tc.delta_matrix(1), tc.vectorize(ob))
    if x is None:
        return None
    return tc.unvectorize(1, x)


def extend_deformation(dm: DeformedMorphism, theta: CochainTriple) -> DeformedMorphism:
    """Append a degree-1 triple as the next-order terms."""
    if theta.degree != 1:
        raise DegreeMismatch("extension terms form a degree-1 triple")
    return DeformedMorphism(
        DeformedAlgebra(
            dm.src_def.base, dm.order + 1, dm.src_def.terms + (theta.c1,)
        ),
        DeformedAlgebra(
            dm.tgt_def.base, dm.order + 1, dm.tgt_def.terms + (theta.c2,)
        ),
        dm.phi_terms + (cochain_matrix(theta.c3),),
        dm.name,
    )


@dataclass(frozen=True)
class FormalAutomorphism:
    """Series of endomorphisms with identity constant term, hence invertible."""

    dim: int
    order: int
    terms: tuple[Matrix, ...]  # terms[i] multiplies the (i+1)-st power

    def __post_init__(self):
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


def formal_inverse(psi: FormalAutomorphism, k: int) -> FormalAutomorphism:
    """Series inverse modulo the (k+1)-st power of the parameter."""
    inv: list[Matrix] = []
    for m in range(1, k + 1):
        acc = Matrix.zero(psi.dim, psi.dim)
        for i in range(1, m + 1):
            chi = inv[m - i - 1] if m - i >= 1 else Matrix.identity(psi.dim)
            acc = acc.add(psi.term(i).mul(chi))
        inv.append(acc.scale(-1))
    return FormalAutomorphism(psi.dim, k, tuple(inv))


def compose_series(
    a: FormalAutomorphism, b: FormalAutomorphism, k: int
) -> FormalAutomorphism:
    """Truncated composition a o b of endomorphism series."""
    if a.dim != b.dim:
        raise DimensionMismatch("series dimensions differ")
    terms = []
    for s in range(1, k + 1):
        acc = Matrix.zero(a.dim, a.dim)
        for i in range(s + 1):
            acc = acc.add(a.term(i).mul(b.term(s - i)))
        terms.append(acc)
    return FormalAutomorphism(a.dim, k, tuple(terms))


def apply_automorphism(
    dm: DeformedMorphism,
    psi_src: FormalAutomorphism,
    psi_tgt: FormalAutomorphism,
    k: Optional[int] = None,
) -> DeformedMorphism:
    """Equivalent deformation obtained by conjugating with the given pair.

    The source bracket is conjugated by psi_src, the target bracket by
    psi_tgt, and the map series becomes psi_tgt o phi o psi_src^{-1}, all
    truncated at order k (the deformation's own order by default).
    """
    if k is None:
        k = dm.order
    if k > dm.order:
        raise OrderMismatch("cannot transform beyond the validated order")
    if psi_src.dim != dm.src_def.base.dim or psi_tgt.dim != dm.tgt_def.base.dim:
        raise DimensionMismatch("automorphism dimensions do not fit")
    inv_src = formal_inverse(psi_src, k)
    new_src = _conjugate_brackets(dm.src_def, psi_src, inv_src, k)
    inv_tgt = formal_inverse(psi_tgt, k)
    new_tgt = _conjugate_brackets(dm.tgt_def, psi_tgt, inv_tgt, k)
    phi_terms = []
    for s in range(k + 1):
        acc = Matrix.zero(dm.tgt_def.base.dim, dm.src_def.base.dim)
        for a in range(s + 1):
            for i in range(s - a + 1):
                b = s - a - i
                acc = acc.add(psi_tgt.term(a).mul(dm.phi_order(i)).mul(inv_src.term(b)))
        phi_terms.append(acc)
    return DeformedMorphism(new_src, new_tgt, tuple(phi_terms), dm.name)


def _conjugate_brackets(
    da: DeformedAlgebra,
    psi: FormalAutomorphism,
    inv: FormalAutomorphism,
    k: int,
) -> DeformedAlgebra:
    alg = da.base
    n = alg.arity
    space = degree1_space(alg)
    new_terms = []
    for s in range(1, k + 1):
        coeffs = {}
        for key in alg.bracket_keys():
            total = list(zero_vector(alg.dim))
            for a in range(s + 1):
                for j in range(s - a + 1):
                    rest = s - a - j
                    for split in _compositions(rest, n):
                        args = [inv.term(b).column(i) for b, i in zip(split, key)]
                        val = psi.term(a).mul_vector(da.bracket_order(j, *args))
                        for t, c in enumerate(val):
                            total[t] += c
            for t, c in enumerate(total):
                if c:
                    coeffs[((key,), t)] = c
        new_terms.append(Cochain(space, coeffs))
    return DeformedAlgebra(alg, k, tuple(new_terms))


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
    return (
        FormalAutomorphism.from_first_order(cochain_matrix(witness.c1)),
        FormalAutomorphism.from_first_order(cochain_matrix(witness.c2)),
    )
