"""n-ary skew bracket algebras: data model, evaluation, and validation.

An algebra is stored through structure constants on strictly increasing
index tuples only, so full skew-symmetry holds by construction and any
repeated argument evaluates to zero.  The fundamental identity (the n-ary
generalisation of Jacobi) is checked by :func:`validate_algebra`, never
assumed at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatch, IndexOutOfRange
from .linalg import Vector, vector
from .tables import SignedTable, _bracket, dense, int_table, nambu_defects


@dataclass(frozen=True)
class NLieAlgebra:
    """Finite-dimensional algebra with an n-ary fully skew bracket.

    ``structure`` maps strictly increasing 0-based index tuples to the value
    of the bracket on those basis vectors; absent tuples mean zero.
    """

    name: str
    arity: int
    dim: int
    basis_names: tuple[str, ...]
    structure: tuple[tuple[tuple[int, ...], Vector], ...]

    def __post_init__(self):
        if self.arity < 2:
            raise DimensionMismatch("arity must be at least 2")
        if self.dim < 1:
            raise DimensionMismatch("dimension must be at least 1")
        if len(self.basis_names) != self.dim:
            raise DimensionMismatch("basis name count differs from dimension")
        seen = set()
        for key, value in self.structure:
            if len(key) != self.arity:
                raise IndexOutOfRange(f"structure key {key} has wrong arity")
            if any(not 0 <= i < self.dim for i in key):
                raise IndexOutOfRange(f"structure key {key} outside basis range")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise IndexOutOfRange(f"structure key {key} not strictly increasing")
            if key in seen:
                raise IndexOutOfRange(f"structure key {key} repeated")
            if len(value) != self.dim:
                raise DimensionMismatch(f"structure value for {key} has wrong length")
            seen.add(key)

    @classmethod
    def from_brackets(
        cls,
        name: str,
        arity: int,
        dim: int,
        brackets: Mapping[Sequence[int], Sequence],
        basis_names: Optional[Sequence[str]] = None,
    ) -> "NLieAlgebra":
        """Build from a {index-tuple: coefficient-vector} mapping (0-based)."""
        names = tuple(basis_names) if basis_names else tuple(
            f"e{i + 1}" for i in range(dim)
        )
        items = []
        for key, value in brackets.items():
            vec = vector(value)
            if any(vec):
                items.append((tuple(key), vec))
        items.sort(key=lambda kv: kv[0])
        return cls(name, arity, dim, names, tuple(items))

    @classmethod
    def abelian(cls, name: str, arity: int, dim: int) -> "NLieAlgebra":
        return cls.from_brackets(name, arity, dim, {})

    @cached_property
    def den(self) -> int:
        """Lcm of the denominators of the structure constants."""
        return lcm(*(x.denominator for _, val in self.structure for x in val))

    @cached_property
    def ints(self) -> SignedTable:
        """Structure constants as a signed table over ``den``: {increasing
        n-tuple: {t: int}}, read at any ordering of the indices.  Shared by
        every reader; a read stores its ordering, and never changes the value
        under an increasing key."""
        return int_table(self.structure, self.den)

    def bracket(self, *vectors_in: Sequence) -> Vector:
        """Multilinear skew extension of the structure constants."""
        if len(vectors_in) != self.arity:
            raise DimensionMismatch(
                f"bracket takes {self.arity} arguments, got {len(vectors_in)}"
            )
        vs = [vector(v) for v in vectors_in]
        if any(len(v) != self.dim for v in vs):
            raise DimensionMismatch("bracket argument of wrong dimension")
        out = _bracket(self.ints, [{j: c for j, c in enumerate(v) if c} for v in vs])
        return tuple(Fraction(out.get(t, 0), self.den) for t in range(self.dim))

    @cached_property
    def report(self) -> "ValidationReport":
        """The fundamental identity check, computed once per algebra."""
        return validate_algebra(self)

    def bracket_keys(self) -> list[tuple[int, ...]]:
        """All strictly increasing n-tuples of basis indices."""
        return list(combinations(range(self.dim), self.arity))


@dataclass(frozen=True)
class Failure:
    """One basis key where a defining identity breaks at one order.

    ``part`` names the identity: "algebra" for the fundamental identity of
    an algebra, keyed by the (x, y) tuple pair; "morphism" for the map
    equation, keyed by (bracket tuple,); "source" and "target" for the
    bracket families of a deformation.  Validation is the order-0 check.
    """

    part: str
    order: int
    key: tuple
    residual: Vector


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive basis-tuple check; empty failures = valid."""

    subject: str
    kind: str
    failures: tuple = ()

    @property
    def is_valid(self) -> bool:
        return not self.failures


def validate_algebra(alg: NLieAlgebra) -> ValidationReport:
    """Check the fundamental identity on every basis tuple pair.

    Multilinearity and built-in skewness reduce the identity to x ranging
    over increasing (n-1)-tuples and y over increasing n-tuples; the check
    is the order-0 defect of :func:`~nliecoh.tables.nambu_defects`.
    """
    defects = nambu_defects(alg.dim, alg.arity, alg.den, (alg.ints,), 0)
    failures = tuple(Failure("algebra", 0, key, dense(res, den, alg.dim)) for key, res, den in defects)
    return ValidationReport(alg.name, "algebra", failures)
