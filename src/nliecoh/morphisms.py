"""Morphisms between n-ary algebras and their deformation-controlling complex.

The complex attached to a morphism is a direct sum of three cochain spaces
(self-valued on the source, self-valued on the target, module-valued one
degree down) with a coupling term in the differential: the mapping cone of
post - pull.  Cohomology of that complex classifies simultaneous
deformations of source, target, and the morphism between them.

A triple is a ``Cochain`` on the three spaces, built from its parts by
``triple(c1, c2, c3)`` and read back by ``Cochain.parts``.  One way in:
``triple_complex(phi)`` is the morphism's ``TripleComplex``.
``TripleComplex.coboundary`` applies the differential to a triple,
``TripleComplex.cohomologous`` finds a witness that two cocycles are
cohomologous, and ``morphism_cohomology(phi, r)`` reads H^r.  The module
piece alone is ``cochains.coboundary_matrix_module(phi, m)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import combinations, product
from math import lcm
from typing import Optional, Sequence

from .algebra import Failure, NLieAlgebra, ValidationReport
from .cochains import (
    Cochain,
    CochainSpace,
    CohomologyReport,
    _cohomology_at,
    coboundary_matrix_module,
    coboundary_matrix_self,
    require_valid_morphism,
)
from .errors import (
    ArityMismatch,
    DegreeMismatch,
    DimensionMismatch,
    NotCocycle,
)
from .linalg import Matrix, _sub, int_columns, solve
from .tables import SignedTable, _bracket, dense, map_defects


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

    @cached_property
    def report(self) -> ValidationReport:
        """The structure preservation check, computed once per morphism."""
        return validate_morphism(self)


def validate_morphism(phi: Morphism) -> ValidationReport:
    """Check structure preservation on every increasing basis tuple: the
    order-0 defect of :func:`~nliecoh.tables.map_defects`.  When an algebra
    fails the fundamental identity, its failures are the report's."""
    src, tgt = phi.source, phi.target
    for alg in (src, tgt):
        if not alg.report.is_valid:
            return ValidationReport(phi.name or "morphism", "morphism", alg.report.failures)
    defects = map_defects(src.arity, (phi.matrix,), src.den, (src.ints,), tgt.den, (tgt.ints,), 0)
    failures = tuple(Failure("morphism", 0, (key,), dense(res, den, tgt.dim)) for key, res, den in defects)
    return ValidationReport(phi.name or "morphism", "morphism", failures)


def triple(c1: Cochain, c2: Cochain, c3: Optional[Cochain]) -> Cochain:
    """The morphism-complex cochain of degree ``c1.degree`` with the parts
    c1, c2 (self-valued on source and target) and c3 (module-valued one
    degree lower, None at degree 0), one row over the lcm of their dens."""
    m = c1.degree
    if c2.degree != m:
        raise DegreeMismatch("component degrees disagree with the triple degree")
    if m == 0:
        if c3 is not None:
            raise DegreeMismatch("degree-0 triples have no third component")
    elif c3 is None or c3.degree != m - 1:
        raise DegreeMismatch("third component must sit one degree lower")
    parts = [c for c in (c1, c2, c3) if c is not None]
    if any(len(c.spaces) != 1 for c in parts):
        raise DimensionMismatch("the parts of a triple lie on one space each")
    # parts in lowest terms stay so over the lcm of their denominators
    den, row, off = lcm(*(c.den for c in parts)), {}, 0
    for c in parts:
        row.update((off + j, v * (den // c.den)) for j, v in c.row.items())
        off += c.space.dim
    return Cochain.from_row((c1.space, c2.space, None if c3 is None else c3.space), row, den)


class TripleComplex:
    """Matrices and coordinate helpers for the complex of one morphism.
    Differentials are cached; building the one out of degree m caches the
    one out of degree m - 1 as well."""

    def __init__(self, phi: Morphism):
        require_valid_morphism(phi)
        self.phi = phi
        self._delta_cache: dict[int, Matrix] = {}
        self._space_cache: dict[int, tuple] = {}

    # -- spaces -------------------------------------------------------------
    def spaces(self, m: int) -> tuple:
        """Source, target and module spaces at triple degree m, built once;
        the module space is None at m = 0."""
        spaces = self._space_cache.get(m)
        if spaces is None:
            src, tgt = self.phi.source, self.phi.target
            spaces = self._space_cache[m] = (
                CochainSpace(src, m, src.dim),
                CochainSpace(tgt, m, tgt.dim),
                CochainSpace(src, m - 1, tgt.dim) if m else None,
            )
        return spaces

    # -- structure matrices ---------------------------------------------------
    def post_matrix(self, m: int) -> Matrix:
        """Post-composition with the morphism, source-self to module cochains."""
        keys = len(self.spaces(m)[0].domain_keys)
        d, phi = self.phi.source.dim, self.phi.matrix
        rows = [{pos * d + t: a for t, a in r.items()} for pos in range(keys) for r in phi.ints]
        return Matrix.from_ints(keys * phi.rows, keys * d, rows, phi.dens * keys)

    def pull_matrix(self, m: int) -> Matrix:
        """Pre-composition with the morphism, target-self to module cochains.

        A key's arguments map to the product of the images of its wedges
        under exterior powers of phi, so the matrix is the transpose of
        (Lambda^(n-1) phi)^(x)(m-1) (x) Lambda^n phi, times I_(d_T) by
        Kronecker product; at m = 0 the keys are basis indices and the
        transpose is of phi itself.
        """
        phi = self.phi.matrix
        n, dp = self.phi.source.arity, self.phi.target.dim
        d_phi = lcm(*phi.dens)
        cols = int_columns(phi, d_phi)
        # phi e_w1 ^ ... ^ phi e_wk is the skew multilinear expansion that
        # _bracket makes on the table taking each increasing k-tuple to itself
        units = {
            k: SignedTable((u, {u: 1}) for u in combinations(range(dp), k)) for k in {1, n - 1, n}
        }
        image = cache(lambda w: _bracket(units[len(w)], [cols[i] for i in w]))
        src_space, tgt_space, _ = self.spaces(m)
        tgt_pos = tgt_space._key_pos
        den = d_phi ** ((n - 1) * (m - 1) + n) if m else d_phi
        rows: list[dict] = []
        for key in src_space.domain_keys:
            entries = []
            wedges = key if m else ((key,),)
            for choice in product(*(image(w).items() for w in wedges)):
                c = 1
                for _, x in choice:
                    c *= x
                tkey = tuple(v for v, _ in choice) if m else choice[0][0][0]
                entries.append((tgt_pos[tkey] * dp, c))
            rows += [{base + s: c for base, c in entries} for s in range(dp)]
        return Matrix.from_ints(len(rows), len(tgt_pos) * dp, rows, [den] * len(rows))

    def delta_matrix(self, m: int, floor: Optional[list] = None) -> Matrix:
        """Block differential out of triple degree m.  Its blocks are built
        once each; their towers hand back the blocks out of degree m - 1, so
        that differential is merged and cached too.  Given a list ``floor``
        and m >= 1, the one out of degree m - 1 is appended to it."""
        out = self._delta_cache.get(m)
        if out is None:
            phi = self.phi
            floors = [] if m and m - 1 not in self._delta_cache else None
            d_src = coboundary_matrix_self(phi.source, m, floors)
            d_tgt = coboundary_matrix_self(phi.target, m, floors)
            d_mod = coboundary_matrix_module(phi, m - 1, floors) if m else None
            out = self._merge(m, d_src, d_tgt, d_mod)
            if floors is not None:
                self._merge(m - 1, *floors)
        if floor is not None and m:
            floor.append(self._delta_cache[m - 1])
        return out

    def _merge(self, m: int, d_src: Matrix, d_tgt: Matrix, d_mod: Optional[Matrix] = None):
        """Cache the differential out of degree m, merged from its self and
        module blocks (``d_mod`` None at m = 0) and the post and pull
        blocks, and return it."""
        post = self.post_matrix(m)
        pull = self.pull_matrix(m)
        dims_in = [s.dim if s else 0 for s in self.spaces(m)]
        sign = (-1) ** m
        off_tgt, off_mod = dims_in[0], dims_in[0] + dims_in[1]
        # from_ints keeps rows in lowest terms as they are: d_src's are
        # shared, d_tgt's are built once with their offset
        rows = [*d_src.ints, *({off_tgt + j: v for j, v in r.items()} for r in d_tgt.ints)]
        dens = [*d_src.dens, *d_tgt.dens]
        blocks = [(post, 0, sign), (pull, off_tgt, -sign)]
        if d_mod is not None:
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
    def coboundary(self, t: Cochain) -> Cochain:
        if t.spaces != self.spaces(t.degree):
            raise DimensionMismatch("the cochain does not lie on this morphism's complex")
        row, den = self.delta_matrix(t.degree).mul_row(t.row, t.den)
        return Cochain.from_row(self.spaces(t.degree + 1), row, den)

    def is_cocycle(self, t: Cochain) -> bool:
        return self.coboundary(t).is_zero()

    def cohomology(self, r: int) -> CohomologyReport:
        return _cohomology_at(self.delta_matrix, r)

    def cohomologous(self, a: Cochain, b: Cochain) -> Optional[Cochain]:
        """Witness whose coboundary is a - b, or None when classes differ."""
        if a.degree != b.degree:
            raise DegreeMismatch("triples of different degree")
        if a.degree < 1:
            raise DegreeMismatch("no witnesses below degree 1")
        if not self.is_cocycle(a) or not self.is_cocycle(b):
            raise NotCocycle("cohomologous-class check needs cocycles")
        den = lcm(a.den, b.den)
        diff = _sub({j: v * (den // a.den) for j, v in a.row.items()}, den // b.den, b.row)
        x = solve(self.delta_matrix(a.degree - 1), diff, den)
        return None if x is None else Cochain.from_row(self.spaces(a.degree - 1), *x)


# Morphism complexes kept alive at once.  Each holds its differentials, so
# the bound caps memory in a long-lived process.  Every README command run
# over every bundled file touches 7 distinct morphisms.
_TRIPLE_CACHE_SIZE = 32


@lru_cache(maxsize=_TRIPLE_CACHE_SIZE)
def triple_complex(phi: Morphism) -> TripleComplex:
    return TripleComplex(phi)


def morphism_cohomology(phi: Morphism, r: int) -> CohomologyReport:
    """Cohomology of the morphism complex in classical labelling (r >= 1)."""
    return triple_complex(phi).cohomology(r)
