"""Morphisms between n-ary algebras and their deformation-controlling complex.

The complex attached to a morphism is a direct sum of three cochain spaces
(self-valued on the source, self-valued on the target, module-valued one
degree down) with a coupling term in the differential.  Cohomology of that
complex classifies simultaneous deformations of source, target, and the
morphism between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Mapping, Optional, Sequence

from .algebra import (
    FundamentalObject,
    NLieAlgebra,
    ValidationReport,
    wedge_decompose,
)
from .cochains import (
    Cochain,
    CochainSpace,
    CohomologyReport,
    coboundary_matrix_module,
    coboundary_matrix_self,
    cohomology,
    eval_key_combo,
)
from .errors import (
    ArityMismatch,
    DegreeMismatch,
    DimensionMismatch,
    InvalidMorphism,
    NotCocycle,
)
from .linalg import Matrix, Vector, solve, vector


@dataclass(frozen=True)
class MorphismFailure:
    """Basis tuple where the structure-preservation equation breaks."""

    bracket_tuple: tuple[int, ...]
    residual: Vector


@dataclass(frozen=True)
class Morphism:
    """Linear map between two algebras of the same arity.

    Column j of ``matrix`` is the image of the j-th source basis vector.
    Structure preservation is checked by :func:`validate_morphism`, not at
    construction.
    """

    source: NLieAlgebra
    target: NLieAlgebra
    matrix: Matrix
    name: str = ""

    def __post_init__(self):
        if self.source.arity != self.target.arity:
            raise ArityMismatch(
                f"source arity {self.source.arity} != target arity {self.target.arity}"
            )
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            raise DimensionMismatch(
                f"morphism matrix must be {self.target.dim}x{self.source.dim}"
            )

    @classmethod
    def from_columns(
        cls, source: NLieAlgebra, target: NLieAlgebra, columns: Sequence[Sequence], name: str = ""
    ) -> "Morphism":
        return cls(source, target, Matrix.from_columns(columns), name)

    @classmethod
    def identity(cls, alg: NLieAlgebra) -> "Morphism":
        return cls(alg, alg, Matrix.identity(alg.dim), "id")

    @classmethod
    def zero(cls, source: NLieAlgebra, target: NLieAlgebra) -> "Morphism":
        return cls(source, target, Matrix.zero(target.dim, source.dim), "0")

    def apply(self, v: Sequence) -> Vector:
        return self.matrix.mul_vector(v)

    @cached_property
    def _report(self) -> ValidationReport:
        return validate_morphism(self)

    @property
    def is_valid(self) -> bool:
        return self._report.is_valid


def validate_morphism(phi: Morphism) -> ValidationReport:
    """Check structure preservation on every increasing basis tuple."""
    src, tgt = phi.source, phi.target
    for alg in (src, tgt):
        if not alg.is_valid:
            return ValidationReport(
                phi.name or "morphism", "morphism", alg._report.failures
            )
    failures = []
    for key in src.bracket_keys():
        lhs = phi.apply(src.bracket_on_basis(key))
        rhs = tgt.bracket(*(phi.matrix.column(i) for i in key))
        residual = tuple(a - b for a, b in zip(lhs, rhs))
        if any(residual):
            failures.append(MorphismFailure(key, residual))
    return ValidationReport(phi.name or "morphism", "morphism", tuple(failures))


def module_action(phi: Morphism, x: FundamentalObject, z: Sequence) -> Vector:
    """Action of a source block on the target through the morphism.

    Computes the bracket of the mapped block components with z in the
    target, extended linearly over the wedge decomposition of x.
    """
    z = vector(z)
    if len(z) != phi.target.dim or x.dim != phi.source.dim:
        raise DimensionMismatch("module action shape mismatch")
    if x.components is not None:
        imgs = [phi.apply(v) for v in x.components]
        return phi.target.bracket(*imgs, z)
    out = [Fraction(0)] * phi.target.dim
    for key, c in x.decomposition().items():
        imgs = [phi.matrix.column(i) for i in key]
        val = phi.target.bracket(*imgs, z)
        for t, a in enumerate(val):
            if a:
                out[t] += c * a
    return tuple(out)


def wedge_image(phi: Morphism, x: FundamentalObject) -> FundamentalObject:
    """Image of an argument block under the morphism, component-wise."""
    if x.components is not None:
        return FundamentalObject(
            [phi.apply(v) for v in x.components], dim=phi.target.dim
        )
    combo: dict[tuple[int, ...], Fraction] = {}
    for key, c in x.decomposition().items():
        imgs = [phi.matrix.column(i) for i in key]
        for wkey, wc in wedge_decompose(imgs).items():
            cur = combo.get(wkey, Fraction(0)) + c * wc
            if cur:
                combo[wkey] = cur
            else:
                combo.pop(wkey, None)
    return FundamentalObject.from_combination(phi.target.dim, x.width, combo)


@dataclass(frozen=True)
class CochainTriple:
    """Element of the morphism complex: two self-valued cochains plus a
    module-valued one a degree lower (absent at degree zero)."""

    degree: int
    c1: Cochain
    c2: Cochain
    c3: Optional[Cochain]

    def __post_init__(self):
        if self.degree < 0:
            raise DegreeMismatch("triple degree must be nonnegative")
        if self.c1.space.degree != self.degree or self.c2.space.degree != self.degree:
            raise DegreeMismatch("component degrees disagree with the triple degree")
        if self.degree == 0:
            if self.c3 is not None:
                raise DegreeMismatch("degree-0 triples have no third component")
        else:
            if self.c3 is None or self.c3.space.degree != self.degree - 1:
                raise DegreeMismatch("third component must sit one degree lower")

    def is_zero(self) -> bool:
        return (
            self.c1.is_zero()
            and self.c2.is_zero()
            and (self.c3 is None or self.c3.is_zero())
        )

    def sub(self, other: "CochainTriple") -> "CochainTriple":
        if other.degree != self.degree:
            raise DegreeMismatch("triple degrees differ")
        return CochainTriple(
            self.degree,
            self.c1.sub(other.c1),
            self.c2.sub(other.c2),
            None if self.c3 is None else self.c3.sub(other.c3),
        )


class TripleComplex:
    """Matrices and coordinate helpers for the complex of one morphism."""

    def __init__(self, phi: Morphism):
        if not phi.is_valid:
            raise InvalidMorphism("the morphism fails structure preservation")
        self.phi = phi
        self._delta_cache: dict[int, Matrix] = {}
        self._pull_cache: dict[int, Matrix] = {}
        self._post_cache: dict[int, Matrix] = {}
        self._space_cache: dict[int, tuple] = {}

    # -- spaces -------------------------------------------------------------
    def _spaces(self, m: int) -> tuple:
        """Source, target and module spaces at triple degree m, built once."""
        spaces = self._space_cache.get(m)
        if spaces is None:
            src, tgt = self.phi.source, self.phi.target
            spaces = self._space_cache[m] = (
                CochainSpace(src, m, src.dim),
                CochainSpace(tgt, m, tgt.dim),
                CochainSpace(src, m - 1, tgt.dim) if m else None,
            )
        return spaces

    def space_source(self, m: int) -> CochainSpace:
        return self._spaces(m)[0]

    def space_target(self, m: int) -> CochainSpace:
        return self._spaces(m)[1]

    def space_module(self, m: int) -> Optional[CochainSpace]:
        return self._spaces(m)[2]

    def dim(self, m: int) -> int:
        return sum(s.dim for s in self._spaces(m) if s)

    def zero_triple(self, m: int) -> CochainTriple:
        return CochainTriple(m, *(s.zero() if s else None for s in self._spaces(m)))

    # -- coordinates ---------------------------------------------------------
    def vectorize(self, t: CochainTriple) -> Vector:
        parts = list(t.c1.as_flat()) + list(t.c2.as_flat())
        if t.c3 is not None:
            parts += list(t.c3.as_flat())
        return tuple(parts)

    def unvectorize(self, m: int, flat) -> CochainTriple:
        """Triple from flat coordinates: a dense sequence or a sparse {index: value}."""
        if not isinstance(flat, Mapping) and len(flat) != self.dim(m):
            raise DimensionMismatch(f"flat length {len(flat)} != {self.dim(m)}")
        spaces = self._spaces(m)
        starts = (0, spaces[0].dim, spaces[0].dim + spaces[1].dim)
        parts: tuple[dict, ...] = ({}, {}, {})
        for i, x in flat.items() if isinstance(flat, Mapping) else enumerate(flat):
            k = (i >= starts[1]) + (i >= starts[2])
            parts[k][i - starts[k]] = x
        c1, c2, c3 = (Cochain.from_flat(s, p) if s else None for s, p in zip(spaces, parts))
        return CochainTriple(m, c1, c2, c3)

    # -- structure matrices ---------------------------------------------------
    def post_matrix(self, m: int) -> Matrix:
        """Post-composition with the morphism, source-self to module cochains."""
        cached = self._post_cache.get(m)
        if cached is not None:
            return cached
        keys = len(self.space_source(m).domain_keys)
        d, phi = self.phi.source.dim, self.phi.matrix
        rows = [{pos * d + t: a for t, a in r.items()} for pos in range(keys) for r in phi.ints]
        out = Matrix.from_ints(keys * phi.rows, keys * d, rows, phi.dens * keys)
        self._post_cache[m] = out
        return out

    def _pull_combo(self, m: int, key) -> dict:
        """Decompose a source domain key through mapped blocks and vectors."""
        phi, col, d = self.phi, self.phi.matrix.column, self.phi.source.dim
        space = self.space_target(m)
        if isinstance(key, int):
            return eval_key_combo(space, [], None, col(key))
        blocks = [wedge_image(phi, FundamentalObject.from_basis(d, w)) for w in key[:-1]]
        last = FundamentalObject([col(i) for i in key[-1][:-1]], dim=phi.target.dim)
        return eval_key_combo(space, blocks, last, col(key[-1][-1]))

    def pull_matrix(self, m: int) -> Matrix:
        """Pre-composition with mapped blocks, target-self to module cochains."""
        cached = self._pull_cache.get(m)
        if cached is not None:
            return cached
        src_space = self.space_source(m)
        tgt_space = self.space_target(m)
        dp = self.phi.target.dim
        rows: list[dict] = []
        dens: list[int] = []
        for key in src_space.domain_keys:
            combo = self._pull_combo(m, key)
            den = lcm(*(c.denominator for c in combo.values()))
            cols = [
                (tgt_space._key_pos[k] * dp, c.numerator * (den // c.denominator))
                for k, c in combo.items()
            ]
            rows += [{base + s: c for base, c in cols} for s in range(dp)]
            dens += [den] * dp
        out = Matrix.from_ints(len(rows), tgt_space.dim, rows, dens)
        self._pull_cache[m] = out
        return out

    def delta_matrix(self, m: int) -> Matrix:
        """Block differential out of triple degree m."""
        cached = self._delta_cache.get(m)
        if cached is not None:
            return cached
        phi = self.phi
        d_src = coboundary_matrix_self(phi.source, m)
        d_tgt = coboundary_matrix_self(phi.target, m)
        post = self.post_matrix(m)
        pull = self.pull_matrix(m)
        dims_in = [s.dim if s else 0 for s in self._spaces(m)]
        sign = (-1) ** m
        off_tgt, off_mod = dims_in[0], dims_in[0] + dims_in[1]
        rows = [*d_src.ints, *({off_tgt + j: v for j, v in r.items()} for r in d_tgt.ints)]
        dens = [*d_src.dens, *d_tgt.dens]
        blocks = [(post, 0, sign), (pull, off_tgt, -sign)]
        if m >= 1:
            d_mod = coboundary_matrix_module(phi.source, phi.target, phi, m - 1)
            blocks.append((d_mod, off_mod, 1))
        for i in range(post.rows):
            den = lcm(*(b.dens[i] for b, _, _ in blocks))
            row: dict[int, int] = {}
            for b, off, s in blocks:
                f = s * (den // b.dens[i])
                row.update((off + j, f * v) for j, v in b.ints[i].items())
            rows.append(row)
            dens.append(den)
        out = Matrix.from_ints(len(rows), sum(dims_in), rows, dens)
        self._delta_cache[m] = out
        return out

    # -- operations -----------------------------------------------------------
    def coboundary(self, t: CochainTriple) -> CochainTriple:
        mat = self.delta_matrix(t.degree)
        return self.unvectorize(t.degree + 1, mat.mul_vector(self.vectorize(t)))

    def is_cocycle(self, t: CochainTriple) -> bool:
        return self.coboundary(t).is_zero()

    def cohomology(self, r: int) -> CohomologyReport:
        if r < 1:
            raise DegreeMismatch("report degree starts at 1")
        m = r - 1
        delta_out = self.delta_matrix(m)
        delta_in = self.delta_matrix(m - 1) if m >= 1 else None
        return cohomology(delta_in, delta_out)

    def cohomologous(
        self, a: CochainTriple, b: CochainTriple
    ) -> Optional[CochainTriple]:
        if a.degree != b.degree:
            raise DegreeMismatch("triples of different degree")
        if a.degree < 1:
            raise DegreeMismatch("no witnesses below degree 1")
        if not self.is_cocycle(a) or not self.is_cocycle(b):
            raise NotCocycle("cohomologous-class check needs cocycles")
        m = a.degree
        diff = self.vectorize(a.sub(b))
        x = solve(self.delta_matrix(m - 1), diff)
        if x is None:
            return None
        return self.unvectorize(m - 1, x)


# Morphism complexes kept alive at once.  Each holds its differentials, so
# the bound caps memory in a long-lived process.  Every README command run
# over every bundled file touches 7 distinct morphisms.
_TRIPLE_CACHE_SIZE = 32


@lru_cache(maxsize=_TRIPLE_CACHE_SIZE)
def triple_complex(phi: Morphism) -> TripleComplex:
    return TripleComplex(phi)


def triple_coboundary(phi: Morphism, t: CochainTriple) -> CochainTriple:
    """Differential of the morphism complex applied to one triple."""
    return triple_complex(phi).coboundary(t)


def morphism_cohomology(phi: Morphism, r: int) -> CohomologyReport:
    """Cohomology of the morphism complex in classical labelling (r >= 1)."""
    return triple_complex(phi).cohomology(r)


def cohomologous_check(
    phi: Morphism, a: CochainTriple, b: CochainTriple
) -> Optional[CochainTriple]:
    """Witness whose coboundary is a - b, or None when classes differ."""
    return triple_complex(phi).cohomologous(a, b)
