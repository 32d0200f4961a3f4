"""Sparse integer tables of structure constants and the two identities on them.

A bracket table (:class:`SignedTable`) holds each strictly increasing
n-tuple of basis indices with its nonzero value {t: int}, every value an
int over one denominator, and reads the bracket at any ordering of its
arguments as ``table[idxs]``, sign included.  A table is brought to a
larger denominator once, by :func:`scaled`, and shared as it is when the
factor is 1.  Vectors are sparse {index: int} dicts, and a linear map is
given by its sparse integer columns (``linalg.int_columns``).  On these
the fundamental identity of a bracket family and the map equation of a
series of maps are evaluated order by order.  At order 0 they validate an
algebra and a morphism; at higher orders they are the residuals and
obstructions of a deformation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod
from typing import Iterator, Sequence

from .linalg import Matrix, int_columns


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


_NONE: dict = {}  # the value of every vanishing read; never mutated


class SignedTable(dict):
    """{increasing n-tuple: {t: int}} that reads any ordering of an index
    tuple as the signed bracket: ``table[idxs]`` is the stored value times
    the sign of the permutation sorting ``idxs``, and empty when an index
    repeats or the sorted key is absent.

    An ordering is sorted on its first read only and then stored, so later
    reads are one dict lookup; the entries grow with the orderings read,
    never with all n! of them.  No read changes the bracket under an
    increasing key, and a table with no bracket stores nothing, so it stays
    falsy.  Values are shared between readers and never mutated.
    """

    __slots__ = ()

    def __missing__(self, idxs: tuple) -> dict:
        if not self:
            return _NONE
        sign, key = sort_sign(idxs)
        val = self.get(key, _NONE) if sign else _NONE
        if sign < 0 and val:
            val = {t: -x for t, x in val.items()}
        self[idxs] = val
        return val


def int_table(structure, den: int) -> SignedTable:
    """Signed table of (key, rational vector) items, the values ints over
    ``den``, a multiple of their denominators."""
    return SignedTable(
        (key, {t: x.numerator * (den // x.denominator) for t, x in enumerate(val) if x})
        for key, val in structure
    )


def scaled(table: SignedTable, f: int) -> SignedTable:
    """The table with every value times ``f``: ``table`` itself when f is 1."""
    if f == 1:
        return table
    return SignedTable((k, {t: f * x for t, x in v.items()}) for k, v in table.items())


def dense(res: dict, den: int, dim: int) -> tuple[Fraction, ...]:
    """A sparse {t: int} residual over ``den`` as Fractions, for failure reports."""
    return tuple(Fraction(res.get(t, 0), den) for t in range(dim))


def _bracket(table: SignedTable, args: Sequence[dict]) -> dict:
    """One order's bracket of sparse vectors, multilinear over their supports."""
    out: dict = {}
    if not (table and all(args)):
        return out
    for choice in product(*(a.items() for a in args)):
        idxs, cs = zip(*choice)
        val = table[idxs]
        if val:
            _add(out, val, prod(cs))
    return {t: x for t, x in out.items() if x}


def _apply(cols: Sequence[dict], v: dict) -> dict:
    """Image of a sparse vector under the map with sparse columns ``cols``."""
    out: dict = {}
    for a, c in v.items():
        _add(out, cols[a], c)
    return out


def _add(total: dict, v: dict, c: int = 1) -> None:
    for t, x in v.items():
        total[t] = total.get(t, 0) + c * x


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` >= 1 nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def series_bracket(tables: Sequence[SignedTable], cols: Sequence, key: tuple, s: int) -> dict:
    """Order-s coefficient {t: c} of [g e_k1, ..., g e_kn] for the family with
    one table per order and the map series g with sparse columns ``cols[i]``
    per order: the sum of [g_i1 e_k1, ..., g_in e_kn]_j over j + i_1 + ... = s."""
    total: dict = {}
    for j in range(min(s, len(tables) - 1) + 1):
        for split in _compositions(s - j, len(key)):
            if max(split) < len(cols):
                _add(total, _bracket(tables[j], [cols[i][a] for i, a in zip(split, key)]))
    return {t: x for t, x in total.items() if x}


def nambu_defects(
    d: int, n: int, den: int, tables: Sequence[SignedTable], s: int
) -> Iterator[tuple[tuple, dict, int]]:
    """Order-s coefficient of the fundamental-identity defect

        [x, [k]] - sum_i [k_1, ..., [x, k_i], ..., k_n]

    of the family with one table per order (ints over ``den``), at each
    basis (n-1)-tuple x and n-tuple k, increasing, x first: yields
    ((x, k), {t: int}, den**2) where it is nonzero.  Each summand is a
    product of two table entries, an int over ``den**2``.
    """
    order = len(tables) - 1
    pairs = [
        (tables[k], tables[s - k])
        for k in range(max(0, s - order), min(s, order) + 1)
        if tables[k] and tables[s - k]
    ]
    if not pairs:
        return
    den2 = den**2
    for xt in combinations(range(d), n - 1):
        for kt in combinations(range(d), n):
            total: dict = {}
            for inner, outer in pairs:
                for j, c in inner[kt].items():
                    _add(total, outer[xt + (j,)], c)
                for i in range(n):
                    for j, c in inner[xt + (kt[i],)].items():
                        _add(total, outer[kt[:i] + (j,) + kt[i + 1 :]], -c)
            if any(total.values()):
                yield (xt, kt), {t: c for t, c in total.items() if c}, den2


def map_defects(
    n: int,
    terms: Sequence[Matrix],
    src_den: int,
    src_tables: Sequence[SignedTable],
    tgt_den: int,
    tgt_tables: Sequence[SignedTable],
    s: int,
) -> Iterator[tuple[tuple, dict, int]]:
    """Order-s coefficient of the map-equation defect

        phi [x_1, ..., x_n] - [phi x_1, ..., phi x_n]

    of the series of maps ``terms`` between the families with one table per
    order (ints over ``src_den`` and ``tgt_den``), at each increasing basis
    n-tuple: yields (tuple, {t: int}, den) where it is nonzero.  With the
    map columns ints over d_phi, a pulled term is an int over
    d_phi * src_den and a target bracket an int over tgt_den * d_phi**n;
    den is the lcm of the two.
    """
    d_phi = lcm(*(d for m in terms for d in m.dens))
    cols = [int_columns(m, d_phi) for m in terms]
    pull_den = d_phi * src_den
    push_den = tgt_den * d_phi**n
    den = lcm(pull_den, push_den)
    pull, push = den // pull_den, -(den // push_den)
    top = min(s, len(terms) - 1)
    for key in combinations(range(terms[0].cols), n):
        total: dict = {}
        for i in range(s - top, top + 1):
            _add(total, _apply(cols[i], src_tables[s - i][key]), pull)
        _add(total, series_bracket(tgt_tables, cols, key, s), push)
        if any(total.values()):
            yield key, {t: c for t, c in total.items() if c}, den
