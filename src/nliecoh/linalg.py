"""Exact sparse rational linear algebra.

Everything the cohomology machinery needs reduces to the primitives here:
rank, right null space, particular solutions, and quotient-space data, all
over arbitrary-precision rationals with no rounding anywhere.

A vector is an integer row: a ``{index: int}`` dict of nonzero entries over
one positive denominator, in lowest terms (the denominator is the lcm of the
entries' reduced denominators), so equal vectors store equal rows.  Row i of
a matrix is the row ``ints[i]`` over ``dens[i]``, and a cochain or a triple
is one such row.  Rows are plain dicts, shared between matrices and caches
without a copy, so they must not be mutated; plain dicts of ints are not
tracked by cyclic garbage collection, which matters at 10^5-10^6 rows.
Outside input, dense or sparse, is coerced and
range-checked in one place, :func:`int_row`, which ``Matrix(rows, cols,
data)`` calls per row; rows derived from integer rows are built as integers
and put in lowest terms by :meth:`Matrix.from_ints`, and
:meth:`Matrix.mul_row` and :func:`solve` take and return them.  Columns are
read as integer rows by :func:`int_columns`, which ``transpose`` is built
on.  ``data`` is the ``{column: Fraction}`` view of the rows, built on first
read.  Row reduction runs in :func:`_echelon`, one fraction-free pass per
row into a reduced integer basis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, SubspaceViolation

Vector = tuple[Fraction, ...]
_INT = frozenset((int,))


def frac(x) -> Fraction:
    """Coerce an int or a Fraction to Fraction; nothing else is exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot treat {x!r} as an exact rational")


def vector(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def int_row(entries, size: int) -> tuple[dict[int, int], int]:
    """The integer row and denominator, in lowest terms, of exact entries:
    ``size`` of them in order, or a sparse {index: value} with every index
    in 0..size-1.  All outside input is coerced here."""
    if not isinstance(entries, dict):
        entries = dict(enumerate(entries))
        if len(entries) != size:
            raise DimensionMismatch(f"vector length {len(entries)} != {size}")
    elif entries and not (_INT.issuperset(map(type, entries)) and 0 <= min(entries) <= max(entries) < size):
        raise DimensionMismatch(f"vector index outside 0..{size - 1}")
    den = 1
    if not _INT.issuperset(map(type, entries.values())):
        entries = {j: frac(x) for j, x in entries.items()}
        den = lcm(*(x.denominator for x in entries.values()))
        entries = {j: x.numerator * (den // x.denominator) for j, x in entries.items()}
    return {j: x for j, x in entries.items() if x}, den


def int_columns(m: "Matrix", den: int) -> list[dict]:
    """Columns of ``m`` as sparse ints over ``den``, a multiple of its row
    denominators."""
    cols: list[dict] = [{} for _ in range(m.cols)]
    for i, (row, d) in enumerate(zip(m.ints, m.dens)):
        f = den // d
        for j, v in row.items():
            cols[j][i] = f * v
    return cols


def lowest(row: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """An integer row of nonzero entries over ``den`` > 0 in lowest terms."""
    g = gcd(den, *row.values()) if den != 1 else 1
    return ({j: v // g for j, v in row.items()}, den // g) if g != 1 else (row, den)


class Matrix:
    """Immutable sparse rational matrix: row i is ``ints[i]`` divided by
    ``dens[i]``, in lowest terms; ``data[i]`` is the same row as a
    {column: Fraction} dict.  Rows are shared, not copied: do not mutate
    them."""

    __slots__ = ("rows", "cols", "ints", "dens", "_data")

    def __init__(self, rows: int, cols: int, data: Iterable):
        """Build from ``rows`` rows of exact entries, each ``cols`` entries in
        order or a sparse {column: entry}; zero entries are dropped."""
        pairs = [int_row(r, cols) for r in data]
        if len(pairs) != rows:
            raise DimensionMismatch(f"matrix data does not fill {rows}x{cols}")
        self._set(rows, cols, (r for r, _ in pairs), (d for _, d in pairs))

    def _set(self, rows: int, cols: int, ints: Iterable[dict], dens: Iterable[int]) -> None:
        for name, value in zip(self.__slots__, (rows, cols, tuple(ints), tuple(dens), None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_ints(cls, rows: int, cols: int, ints: Iterable[dict], dens: Iterable[int]) -> "Matrix":
        """Build from integer rows of nonzero entries, as derived from other
        matrices' ``ints`` or assembled from integer tables, over positive
        denominators; rows are put in lowest terms and not checked otherwise.
        The matrix takes ownership of every row already in lowest terms, as
        the same object: the caller must not mutate it afterwards."""
        out, low = [], []
        for r, d in zip(ints, dens):
            if d != 1:
                g = gcd(d, *r.values())
                if g != 1:
                    r, d = {j: v // g for j, v in r.items()}, d // g
            out.append(r)
            low.append(d)
        m = cls.__new__(cls)
        m._set(rows, cols, out, low)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_ints(rows, cols, [{}] * rows, [1] * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_ints(n, n, [{i: 1} for i in range(n)], [1] * n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        return cls.from_rows(columns).transpose()

    @property
    def data(self) -> tuple[dict, ...]:
        """The rows as {column: nonzero Fraction} dicts, built once and shared:
        do not mutate them."""
        if self._data is None:
            rows = zip(self.ints, self.dens)
            view = tuple({j: Fraction(v, d) for j, v in r.items()} for r, d in rows)
            object.__setattr__(self, "_data", view)
        return self._data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and (self.rows, self.cols, self.dens) == (other.rows, other.cols, other.dens)
            and self.ints == other.ints
        )

    def __hash__(self) -> int:
        rows = tuple(frozenset(r.items()) for r in self.ints)
        return hash((self.rows, self.cols, self.dens, rows))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def transpose(self) -> "Matrix":
        d = lcm(*self.dens)
        return Matrix.from_ints(self.cols, self.rows, int_columns(self, d), [d] * self.cols)

    def is_zero(self) -> bool:
        return not any(self.ints)

    def mul_row(self, row: dict[int, int], den: int = 1) -> tuple[dict[int, int], int]:
        """The product with the integer row ``row`` over ``den``, as an
        integer row in lowest terms: one integer per nonzero product, over
        the lcm e of the row denominators times ``den``."""
        if row and not (min(row) >= 0 and max(row) < self.cols):
            raise DimensionMismatch(f"vector index outside 0..{self.cols - 1}")
        w, e, out = [row.get(j, 0) for j in range(self.cols)], lcm(*self.dens), {}
        for i, (r, d) in enumerate(zip(self.ints, self.dens)):
            x = sum(a * w[j] for j, a in r.items()) if r else 0
            if x:
                out[i] = x * (e // d)
        return lowest(out, e * den)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # integer products over one common denominator d of ``other``
        d = lcm(*other.dens)
        right = [r if e == d else {j: v * (d // e) for j, v in r.items()} for r, e in zip(other.ints, other.dens)]
        ints, dens = [{}] * self.rows, [1] * self.rows  # zero rows share one row
        for i in compress(count(), self.ints):  # the nonempty rows
            acc: dict[int, int] = {}
            for k, a in self.ints[i].items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if any(acc.values()):
                ints[i], dens[i] = lowest({j: v for j, v in acc.items() if v}, self.dens[i] * d)
        m = Matrix.__new__(Matrix)
        m._set(self.rows, other.cols, ints, dens)
        return m

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        # integer sums over the lcm of each pair of row denominators
        dens = [lcm(a, b) for a, b in zip(self.dens, other.dens)]
        out = [
            _sub({j: v * (d // a) for j, v in r1.items()}, -(d // b), r2)
            for r1, a, r2, b, d in zip(self.ints, self.dens, other.ints, other.dens, dens)
        ]
        return Matrix.from_ints(self.rows, self.cols, out, dens)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        out = [{j: c.numerator * v for j, v in r.items()} if c else {} for r in self.ints]
        return Matrix.from_ints(self.rows, self.cols, out, [d * c.denominator for d in self.dens])


def _sub(acc: dict[int, int], f: int, row: dict[int, int]) -> dict[int, int]:
    """acc - f * row, in place, dropping the entries that cancel."""
    for j, v in row.items():
        w = acc.get(j, 0) - f * v
        if w:
            acc[j] = w
        else:
            del acc[j]
    return acc


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """Integer row divided by its content, signed so row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return {j: v // g for j, v in row.items()} if g != 1 else row


def _echelon(rows: Iterable[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Reduced integer basis of the span of integer rows: (pivot column,
    row) pairs, pivots ascending.

    Each basis row is primitive, has a positive entry at its pivot column,
    which is its leading column, and is zero on every other pivot column,
    so dividing it by that entry gives the row of the (unique) reduced row
    echelon form.  Rows are taken once each, by descending leading column
    and then length.  A row is cleared of all its pivot columns in one pass
    with one common multiplier, since a basis row holds no pivot column but
    its own.  A nonzero remainder becomes the basis row of its leading
    column c, and only the basis rows that ``holding`` lists under c are
    cleared of c.  A basis row can hold c only if its pivot lies left of c,
    and in descending order every earlier pivot lies at or right of the
    incoming row's leading column; so a basis row is rewritten only when
    that leading column was already a pivot and the reduction moved the
    lead further right.  ``holding`` keeps the result exact in any order.
    """
    pivots: dict[int, dict[int, int]] = {}
    holding: dict[int, set[int]] = {}  # column -> pivots whose rows may hold it
    for r in sorted(filter(None, rows), key=lambda r: (-min(r), len(r))):
        hit = [(j, pivots[j]) for j in r if j in pivots]
        m = 1
        for j, p in hit:
            if p[j] != 1:  # a unit pivot needs no multiplier
                m = lcm(m, p[j] // gcd(p[j], r[j]))
        new = dict(r) if m == 1 else {j: m * v for j, v in r.items()}
        for j, p in hit:
            _sub(new, m * r[j] // p[j], p)
        if not new:
            continue
        c = min(new)
        new = _primitive(new, c)
        for k in holding.pop(c, ()):
            p = pivots[k]
            if c in p:
                g = gcd(new[c], p[c])
                q = _sub({j: new[c] // g * v for j, v in p.items()}, p[c] // g, new)
                pivots[k] = _primitive(q, k)
                for j in new.keys() & q.keys():
                    holding.setdefault(j, set()).add(k)
        for j in new.keys() - {c}:
            holding.setdefault(j, set()).add(c)
        pivots[c] = new
    return sorted(pivots.items())


def rank(m: Matrix) -> int:
    """Exact rank via row reduction."""
    return len(_echelon(m.ints))


def kernel_basis(m: Matrix) -> Matrix:
    """The right null space, one row per free column f of m, ascending.

    The row of f is the kernel vector of the reduced row echelon form: 1 at
    f and otherwise nonzero only on pivot columns left of f, so f is its
    largest column.  m times every row is zero exactly, and there are
    cols - rank rows.
    """
    reduced = _echelon(m.ints)
    pivots = {pc for pc, _ in reduced}
    free = {f: {f: (1, 1)} for f in range(m.cols) if f not in pivots}
    for pc, r in reduced:
        for f, v in r.items():
            if f != pc:
                free[f][pc] = (-v, r[pc])  # the entry -v / r[pc]
    dens = [lcm(*(a for _, a in row.values())) for row in free.values()]
    ints = [{j: v * (d // a) for j, (v, a) in row.items()} for row, d in zip(free.values(), dens)]
    return Matrix.from_ints(len(ints), m.cols, ints, dens)


def solve(m: Matrix, b: dict[int, int], den: int = 1) -> Optional[tuple[dict[int, int], int]]:
    """Some x with m x = b / den, for an integer row b, as an integer row in
    lowest terms; None when b is outside the column space."""
    if b and not (min(b) >= 0 and max(b) < m.rows):
        raise DimensionMismatch(f"rhs index outside 0..{m.rows - 1}")
    # row i is [ints[i] / dens[i] | b[i] / den], scaled by dens[i] * den
    aug = [
        {**{j: v * den for j, v in r.items()}, m.cols: b[i] * d} if i in b else r
        for i, (r, d) in enumerate(zip(m.ints, m.dens))
    ]
    reduced = _echelon(aug)
    if reduced and reduced[-1][0] == m.cols:
        return None
    # x[pc] = r[m.cols] / r[pc], over the lcm of the pivots
    e = lcm(*(r[pc] for pc, r in reduced if m.cols in r))
    return lowest({pc: r[m.cols] * (e // r[pc]) for pc, r in reduced if m.cols in r}, e)


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
    free = [max(r, default=-1) for r in z.ints]
    pos = {f: i for i, f in enumerate(free)}
    if free != sorted(pos) or any(
        r.get(f) != d or sum(j in pos for j in r) != 1 for f, r, d in zip(free, z.ints, z.dens)
    ):
        raise DimensionMismatch("cocycle rows are not in kernel form")
    restricted = []
    for row in b.ints:
        # b == sum of b[f] z_f, checked in integers over common denominators
        coords = {f: v for f, v in row.items() if f in pos}
        m = lcm(*(z.dens[pos[f]] for f in coords))
        w = {j: m * v for j, v in row.items()}
        for f, c in coords.items():
            _sub(w, c * (m // z.dens[pos[f]]), z.ints[pos[f]])
        if w:
            raise SubspaceViolation("coboundary vector outside the cocycle span")
        restricted.append({len(free) - 1 - pos[f]: v for f, v in coords.items()})
    pivot_rows = {len(free) - 1 - pc for pc, _ in _echelon(restricted)}
    reps = [i for i in range(len(free)) if i not in pivot_rows]
    ints, dens = [z.ints[i] for i in reps], [z.dens[i] for i in reps]
    return len(reps), Matrix.from_ints(len(reps), z.cols, ints, dens)
