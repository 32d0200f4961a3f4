"""Exact sparse rational linear algebra.

Everything the cohomology machinery needs reduces to the primitives here:
rank, right null space, particular solutions, and quotient-space data, all
over arbitrary-precision rationals with no rounding anywhere.

Matrices store only their nonzero entries, one ``{column: Fraction}`` dict
per row.  Row reduction runs in :func:`_echelon`, a fraction-free sparse
elimination over integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, SubspaceViolation

Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)


def frac(x) -> Fraction:
    """Coerce ints, strings like '-3/4', or Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot treat {x!r} as an exact rational")


def vector(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


class _Row(dict):
    """One matrix row, {column: nonzero Fraction}; mutating it raises."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("Matrix rows are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class _SharedInts(dict):
    """int -> Fraction, each made once, so equal int entries share one."""

    def __missing__(self, x: int) -> Fraction:
        q = self[x] = Fraction(x)
        return q


class Matrix:
    """Immutable sparse matrix of Fractions: row i is ``data[i]``, a
    read-only dict mapping each column to its nonzero entry."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        dense = [list(r) for r in data]
        if len(dense) != rows or any(len(r) != cols for r in dense):
            raise DimensionMismatch(f"matrix data does not fill {rows}x{cols}")
        self._fill(rows, cols, [dict(enumerate(r)) for r in dense])

    def _fill(self, rows: int, cols: int, data: Iterable[dict]) -> None:
        ints = _SharedInts()
        tup = tuple(
            _Row({j: q for j, x in r.items() if (q := ints[x] if type(x) is int else frac(x))})
            for r in data
        )
        if len(tup) != rows or any(r and not (min(r) >= 0 and max(r) < cols) for r in tup):
            raise DimensionMismatch(f"sparse rows do not fit {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tup)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_sparse(cls, rows: int, cols: int, data: Iterable[dict]) -> "Matrix":
        """Build from ``rows`` dicts {column: entry}; zero entries are dropped."""
        m = cls.__new__(cls)
        m._fill(rows, cols, data)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_sparse(rows, cols, [{}] * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_sparse(n, n, [{i: Fraction(1)} for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        return cls.from_rows(columns).transpose()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.data)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def row(self, i: int) -> Vector:
        r = self.data[i]
        return tuple(r.get(j, _ZERO) for j in range(self.cols))

    def column(self, j: int) -> Vector:
        return tuple(r.get(j, _ZERO) for r in self.data)

    def transpose(self) -> "Matrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.data):
            for j, x in r.items():
                out[j][i] = x
        return Matrix.from_sparse(self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self.data)

    def mul_vector(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        v = vector(v)
        return tuple(sum((a * v[j] for j, a in r.items()), _ZERO) for r in self.data)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # integer products over one common denominator d of ``other``
        d = lcm(*(x.denominator for r in other.data for x in r.values()))
        right = [{j: x.numerator * (d // x.denominator) for j, x in r.items()} for r in other.data]
        out = []
        for r in self.data:
            den, left = _scaled(r)
            acc: dict[int, int] = {}
            for k, a in left.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: Fraction(v, den * d) for j, v in acc.items() if v})
        return Matrix.from_sparse(self.rows, other.cols, out)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        out = []
        for r1, r2 in zip(self.data, other.data):
            acc = dict(r1)
            for j, x in r2.items():
                acc[j] = acc.get(j, _ZERO) + x
            out.append(acc)
        return Matrix.from_sparse(self.rows, self.cols, out)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix.from_sparse(
            self.rows, self.cols, [{j: c * x for j, x in r.items()} for r in self.data]
        )

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form (pivot rows first) and its pivot columns."""
        reduced = _echelon(self.data)
        rows = [{j: Fraction(v, r[pc]) for j, v in r.items()} for pc, r in reduced]
        rows += [{}] * (self.rows - len(rows))
        return Matrix.from_sparse(self.rows, self.cols, rows), tuple(pc for pc, _ in reduced)


def _scaled(row: dict) -> tuple[int, dict[int, int]]:
    """(d, integer row) with row == integer row / d, d the lcm of denominators."""
    den = lcm(*(x.denominator for x in row.values()))
    return den, {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Integer row divided by the gcd of its entries (its content)."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _echelon(rows: Iterable[dict]) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free sparse elimination: (pivot column, integer row) pairs.

    Each row is cleared of denominators and kept primitive (content 1), in
    the integer scheme of Bareiss.  Pivot columns are taken strictly left
    to right, rows bucketed by leading column; in each bucket the sparsest
    row is the pivot and the others become ``a*r - b*p``.  The pivots are
    therefore those of the reduced row echelon form.  The rows are then
    back-substituted bottom-up, so row k divided by its pivot entry is row
    k of that (unique) form.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        if r:
            ints = _primitive(_scaled(r)[1])
            buckets.setdefault(min(ints), []).append(ints)
    heap = list(buckets)
    heapify(heap)
    echelon = []
    while heap:
        pc = heappop(heap)
        bucket = buckets.pop(pc)
        piv = min(bucket, key=len)
        a = piv[pc]
        for r in bucket:
            if r is piv:
                continue
            g = gcd(a, r[pc])
            fa, fb = a // g, r[pc] // g
            new = {j: fa * v for j, v in r.items()} if fa != 1 else dict(r)
            for j, v in piv.items():
                w = new.get(j, 0) - fb * v
                if w:
                    new[j] = w
                else:
                    del new[j]
            if new:
                new = _primitive(new)
                lead = min(new)
                if lead not in buckets:
                    buckets[lead] = []
                    heappush(heap, lead)
                buckets[lead].append(new)
        echelon.append((pc, piv))
    # rows below are already reduced, so clearing their pivot columns from a
    # row brings in no other pivot column: one common multiplier m suffices
    done: dict[int, dict[int, int]] = {}
    for k in range(len(echelon) - 1, -1, -1):
        pc, r = echelon[k]
        above = [j for j in r if j != pc and j in done]
        if above:
            m = lcm(*(done[j][j] for j in above))
            new = {j: m * v for j, v in r.items() if j not in done or j == pc}
            for j in above:
                f = m // done[j][j] * r[j]
                for i, v in done[j].items():
                    if i != j:
                        w = new.get(i, 0) - f * v
                        if w:
                            new[i] = w
                        else:
                            del new[i]
            r = _primitive(new)
            echelon[k] = (pc, r)
        done[pc] = r
    return echelon


def rank(m: Matrix) -> int:
    """Exact rank via row reduction."""
    return len(_echelon(m.data))


def kernel_basis(m: Matrix) -> Matrix:
    """The right null space, one row per free column f of m, ascending.

    The row of f is the kernel vector of the reduced row echelon form: 1 at
    f and otherwise nonzero only on pivot columns left of f, so f is its
    largest column.  Every row v satisfies m.mul_vector(v) == 0 exactly, and there
    are cols - rank rows.
    """
    reduced = _echelon(m.data)
    pivots = {pc for pc, _ in reduced}
    free = {f: {f: Fraction(1)} for f in range(m.cols) if f not in pivots}
    for pc, r in reduced:
        a = r[pc]
        for f, v in r.items():
            if f != pc:
                free[f][pc] = Fraction(-v, a)
    return Matrix.from_sparse(len(free), m.cols, free.values())


def solve(m: Matrix, b: Sequence) -> Optional[Vector]:
    """Some x with m x = b, or None when b is outside the column space."""
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {m.rows}")
    aug = [{**r, m.cols: bv} if bv else r for r, bv in zip(m.data, vector(b))]
    x = [_ZERO] * m.cols
    for pc, r in _echelon(aug):
        if pc == m.cols:
            return None
        x[pc] = Fraction(r.get(m.cols, 0), r[pc])
    return tuple(x)


def quotient_data(z: Matrix, b: Matrix) -> tuple[int, Matrix]:
    """Dimension and representatives of span(z rows)/span(b rows).

    ``z`` is in the form :func:`kernel_basis` returns: row i has a 1 at its
    largest column f_i, the f_i ascend, and no row has a nonzero entry at
    another row's f.  DimensionMismatch is raised otherwise.  In those free
    coordinates F, each vector of span Z is the combination of z rows given
    by its entries on F.  SubspaceViolation is raised when some b row is not
    that combination, which signals a broken complex upstream.

    Representatives are z rows, drawn greedily (each z outside the span of
    the b rows and the z before it), so they are genuine cocycles when the
    z rows are.  Row z_f is a representative exactly when no vector of span
    B, restricted to F, has f as its largest column, that is when f is no
    pivot of B restricted to F with the columns reversed.  Returns (dim H,
    the representative rows).
    """
    if z.cols != b.cols:
        raise DimensionMismatch(f"cocycle length {z.cols} != coboundary length {b.cols}")
    free = [max(r, default=-1) for r in z.data]
    pos = {f: i for i, f in enumerate(free)}
    if free != sorted(pos) or any(
        r.get(f) != 1 or sum(j in pos for j in r) != 1 for f, r in zip(free, z.data)
    ):
        raise DimensionMismatch("cocycle rows are not in kernel form")
    scaled = [_scaled(r) for r in z.data]
    restricted = []
    for row in b.data:
        # b == sum of b[f] z_f, checked in integers over common denominators
        w = _scaled(row)[1]
        coords = {f: v for f, v in w.items() if f in pos}
        m = lcm(*(scaled[pos[f]][0] for f in coords))
        w = {j: m * v for j, v in w.items()}
        for f, c in coords.items():
            zden, zrow = scaled[pos[f]]
            c *= m // zden
            for j, v in zrow.items():
                w[j] = w.get(j, 0) - c * v
        if any(w.values()):
            raise SubspaceViolation("coboundary vector outside the cocycle span")
        restricted.append({len(free) - 1 - pos[f]: v for f, v in coords.items()})
    pivot_rows = {len(free) - 1 - pc for pc, _ in _echelon(restricted)}
    reps = [r for i, r in enumerate(z.data) if i not in pivot_rows]
    return len(reps), Matrix.from_sparse(len(reps), z.cols, reps)
