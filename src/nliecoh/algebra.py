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
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatch, IndexOutOfRange
from .linalg import Vector, frac, is_zero_vector, vector, zero_vector


def sort_sign(idxs: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting ``idxs``; 0 when an index repeats."""
    n = len(idxs)
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if idxs[i] == idxs[j]:
                return 0, ()
            if idxs[i] > idxs[j]:
                sign = -sign
    return sign, tuple(sorted(idxs))


def wedge_decompose(vectors: Sequence[Vector]) -> dict[tuple[int, ...], Fraction]:
    """Expand v1 ^ ... ^ vk over increasing basis wedges, sign-normalised."""
    out: dict[tuple[int, ...], Fraction] = {}

    def rec(i: int, chosen: tuple[int, ...], coeff: Fraction) -> None:
        if i == len(vectors):
            sign, key = sort_sign(chosen)
            if sign:
                cur = out.get(key, Fraction(0)) + sign * coeff
                if cur:
                    out[key] = cur
                else:
                    out.pop(key, None)
            return
        for j, c in enumerate(vectors[i]):
            if c and j not in chosen:
                rec(i + 1, chosen + (j,), coeff * c)

    rec(0, (), Fraction(1))
    return out


class FundamentalObject:
    """An argument block x1 ^ ... ^ x(n-1) for brackets and cochains.

    Stored as the raw component tuple when one is known (needed by the
    bracket actions, which address individual slots) and decomposed lazily
    over the increasing-wedge basis for cochain evaluation.  Linear
    combinations of wedges carry only the decomposition.
    """

    __slots__ = ("dim", "width", "components", "_decomp")

    def __init__(self, components: Sequence[Sequence], dim: Optional[int] = None):
        comps = tuple(vector(v) for v in components)
        if not comps and dim is None:
            raise DimensionMismatch("empty wedge needs an explicit dimension")
        d = dim if dim is not None else len(comps[0])
        if any(len(v) != d for v in comps):
            raise DimensionMismatch("wedge components of unequal dimension")
        self.dim = d
        self.width = len(comps)
        self.components: Optional[tuple[Vector, ...]] = comps
        self._decomp: Optional[dict[tuple[int, ...], Fraction]] = None

    @classmethod
    def from_basis(cls, dim: int, idxs: Sequence[int]) -> "FundamentalObject":
        if any(not 0 <= i < dim for i in idxs):
            raise IndexOutOfRange(f"wedge indices {idxs} outside 0..{dim - 1}")
        fo = cls.__new__(cls)
        fo.dim = dim
        fo.width = len(idxs)
        fo.components = tuple(
            tuple(Fraction(1 if j == i else 0) for j in range(dim)) for i in idxs
        )
        sign, key = sort_sign(tuple(idxs))
        fo._decomp = {key: Fraction(sign)} if sign else {}
        return fo

    @classmethod
    def from_combination(
        cls, dim: int, width: int, combo: Mapping[tuple[int, ...], Fraction]
    ) -> "FundamentalObject":
        fo = cls.__new__(cls)
        fo.dim = dim
        fo.width = width
        fo.components = None
        fo._decomp = {k: frac(v) for k, v in combo.items() if v}
        return fo

    def decomposition(self) -> dict[tuple[int, ...], Fraction]:
        if self._decomp is None:
            assert self.components is not None
            self._decomp = wedge_decompose(self.components)
        return self._decomp

    def is_zero(self) -> bool:
        return not self.decomposition()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FundamentalObject)
            and self.dim == other.dim
            and self.width == other.width
            and self.decomposition() == other.decomposition()
        )

    def __hash__(self) -> int:
        return hash(
            (self.dim, self.width, tuple(sorted(self.decomposition().items())))
        )

    def __repr__(self) -> str:
        return f"FundamentalObject(dim={self.dim}, {self.decomposition()!r})"


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
            if not is_zero_vector(vec):
                items.append((tuple(key), vec))
        items.sort(key=lambda kv: kv[0])
        return cls(name, arity, dim, names, tuple(items))

    @classmethod
    def abelian(cls, name: str, arity: int, dim: int) -> "NLieAlgebra":
        return cls.from_brackets(name, arity, dim, {})

    @cached_property
    def _table(self) -> dict[tuple[int, ...], Vector]:
        return dict(self.structure)

    @cached_property
    def _basis_cache(self) -> dict[tuple[int, ...], Vector]:
        return {}

    def bracket_on_basis(self, idxs: Sequence[int]) -> Vector:
        """Bracket of basis vectors in any order; repeats give zero."""
        key = tuple(idxs)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        if len(key) != self.arity:
            raise DimensionMismatch(
                f"bracket takes {self.arity} arguments, got {len(key)}"
            )
        sign, sorted_key = sort_sign(key)
        if sign == 0:
            out = zero_vector(self.dim)
        else:
            base = self._table.get(sorted_key)
            if base is None:
                out = zero_vector(self.dim)
            elif sign == 1:
                out = base
            else:
                out = tuple(-x for x in base)
        self._basis_cache[key] = out
        return out

    def bracket(self, *vectors_in: Sequence) -> Vector:
        """Multilinear skew extension of the structure constants."""
        if len(vectors_in) != self.arity:
            raise DimensionMismatch(
                f"bracket takes {self.arity} arguments, got {len(vectors_in)}"
            )
        vs = [vector(v) for v in vectors_in]
        for v in vs:
            if len(v) != self.dim:
                raise DimensionMismatch("bracket argument of wrong dimension")
        out = [Fraction(0)] * self.dim
        supports = [[(j, c) for j, c in enumerate(v) if c] for v in vs]

        def rec(i: int, idxs: tuple[int, ...], coeff: Fraction) -> None:
            if i == len(supports):
                val = self.bracket_on_basis(idxs)
                for t, x in enumerate(val):
                    if x:
                        out[t] += coeff * x
                return
            for j, c in supports[i]:
                if j not in idxs:
                    rec(i + 1, idxs + (j,), coeff * c)

        rec(0, (), Fraction(1))
        return tuple(out)

    def bracket_basis_with_vector(self, idxs: Sequence[int], v: Sequence) -> Vector:
        """Bracket with basis vectors in the first n-1 slots and v last."""
        v = vector(v)
        out = [Fraction(0)] * self.dim
        for j, c in enumerate(v):
            if c:
                val = self.bracket_on_basis(tuple(idxs) + (j,))
                for t, x in enumerate(val):
                    if x:
                        out[t] += c * x
        return tuple(out)

    @cached_property
    def _report(self) -> "ValidationReport":
        return validate_algebra(self)

    @property
    def is_valid(self) -> bool:
        """Fundamental identity verdict, computed once per algebra."""
        return self._report.is_valid

    def wedge_keys(self) -> list[tuple[int, ...]]:
        """All strictly increasing (n-1)-tuples of basis indices."""
        return list(combinations(range(self.dim), self.arity - 1))

    def bracket_keys(self) -> list[tuple[int, ...]]:
        """All strictly increasing n-tuples of basis indices."""
        return list(combinations(range(self.dim), self.arity))


def ad_action(alg: NLieAlgebra, x: FundamentalObject, z: Sequence) -> Vector:
    """[x1, ..., x(n-1), z], extended linearly over the wedge decomposition."""
    z = vector(z)
    if x.dim != alg.dim or len(z) != alg.dim or x.width != alg.arity - 1:
        raise DimensionMismatch("adjoint action shape mismatch")
    if x.components is not None:
        return alg.bracket(*x.components, z)
    out = [Fraction(0)] * alg.dim
    for key, coeff in x.decomposition().items():
        val = alg.bracket_basis_with_vector(key, z)
        for t, v in enumerate(val):
            if v:
                out[t] += coeff * v
    return tuple(out)


def fundamental_bracket(
    alg: NLieAlgebra, x: FundamentalObject, y: FundamentalObject
) -> FundamentalObject:
    """Bracket on argument blocks: substitute the action of x into each y slot.

    Returns sum_i  y1 ^ ... ^ (ad x . y_i) ^ ... ^ y(n-1) in canonical form.
    """
    if x.dim != alg.dim or y.dim != alg.dim:
        raise DimensionMismatch("fundamental bracket dimension mismatch")
    w = alg.arity - 1
    combo: dict[tuple[int, ...], Fraction] = {}
    for xkey, xc in x.decomposition().items():
        for ykey, yc in y.decomposition().items():
            outer = xc * yc
            for i in range(w):
                acted = alg.bracket_basis_with_vector(xkey, _basis(alg.dim, ykey[i]))
                for j, c in enumerate(acted):
                    if not c:
                        continue
                    slot_idxs = ykey[:i] + (j,) + ykey[i + 1 :]
                    sign, skey = sort_sign(slot_idxs)
                    if sign:
                        cur = combo.get(skey, Fraction(0)) + sign * outer * c
                        if cur:
                            combo[skey] = cur
                        else:
                            combo.pop(skey, None)
    return FundamentalObject.from_combination(alg.dim, w, combo)


def _basis(dim: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


@dataclass(frozen=True)
class NambuFailure:
    """One basis instance where the fundamental identity breaks."""

    x_tuple: tuple[int, ...]
    y_tuple: tuple[int, ...]
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
    over increasing (n-1)-tuples and y over increasing n-tuples.
    """
    for key, _ in alg.structure:
        if any(not 0 <= i < alg.dim for i in key):
            raise IndexOutOfRange(f"structure key {key} outside basis range")
    failures = []
    for xt in alg.wedge_keys():
        for yt in alg.bracket_keys():
            inner = alg.bracket_on_basis(yt)
            lhs = alg.bracket_basis_with_vector(xt, inner)
            rhs = [Fraction(0)] * alg.dim
            for i in range(alg.arity):
                acted = alg.bracket_on_basis(xt + (yt[i],))
                for j, c in enumerate(acted):
                    if not c:
                        continue
                    term = alg.bracket_on_basis(yt[:i] + (j,) + yt[i + 1 :])
                    for t, v in enumerate(term):
                        if v:
                            rhs[t] += c * v
            residual = tuple(a - b for a, b in zip(lhs, rhs))
            if not is_zero_vector(residual):
                failures.append(NambuFailure(xt, yt, residual))
    return ValidationReport(alg.name, "algebra", tuple(failures))
