import gc
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalog import _random_invertible, conjugate, conjugated_cases
from oracles import (
    RowSpace,
    column,
    dense,
    dense_row,
    dense_rows,
    mul_vector,
    oracle_quotient,
    oracle_rref,
    solve_vector,
)

from nliecoh import corpus, linalg
from nliecoh.cochains import coboundary_matrix_module, coboundary_matrix_self
from nliecoh.errors import DimensionMismatch, SubspaceViolation
from nliecoh.linalg import (
    Matrix,
    _echelon,
    int_row,
    kernel_basis,
    quotient_data,
    rank,
    solve,
)
from nliecoh.morphisms import triple_complex

# The 61 values p/q in [-5, 5] with q <= 4, simplest first (0, the integers
# by size, then halves, thirds and quarters), so that shrinking moves toward
# 0 and the integers; unlike ``st.fractions``, one draw does not branch on
# the denominator.
fractions = st.sampled_from(
    sorted(
        {Fraction(p, q) for q in range(1, 5) for p in range(-5 * q, 5 * q + 1)},
        key=lambda x: (x.denominator, abs(x), x < 0),
    )
)
small_matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(
        st.lists(fractions, min_size=c, max_size=c), min_size=1, max_size=5
    )
).map(Matrix.from_rows)


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.lists(fractions, min_size=5, max_size=5))
@example(Matrix.zero(0, 3), [Fraction(1, 2)] * 5)
@example(Matrix.zero(3, 0), [Fraction(1, 2)] * 5)
def test_mul_vector_matches_fraction_sum(m, v):
    """``Matrix.mul_row`` on the integer row of v gives the Fraction sums,
    as one integer row of nonzero entries in lowest terms."""
    v = v[: m.cols]
    row, den = m.mul_row(*int_row(v, m.cols))
    assert dense(row, den, m.rows) == mul_vector(m, v)
    assert all(type(x) is int and x for x in row.values())
    assert den > 0 and gcd(den, *row.values()) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_add_matches_fraction_sum(data):
    a = data.draw(small_matrices)
    entries = st.lists(fractions, min_size=a.cols, max_size=a.cols)
    b = Matrix.from_rows(data.draw(st.lists(entries, min_size=a.rows, max_size=a.rows)))
    rows = zip(a.data, b.data)
    want = [{j: r1.get(j, 0) + r2.get(j, 0) for j in {**r1, **r2}} for r1, r2 in rows]
    want = Matrix(a.rows, a.cols, want)
    # fresh copies of the operands, whose Fraction view is not built yet
    a, b = (Matrix.from_ints(m.rows, m.cols, m.ints, m.dens) for m in (a, b))
    got = a.add(b)
    assert got == want and (got.ints, got.dens) == (want.ints, want.dens)
    assert a._data is b._data is got._data is None  # the Fraction view is never built


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mul_matches_fraction_product(data):
    """``Matrix.mul`` against Fraction sums, with an empty left row and a
    left row whose products cancel: rows in lowest terms, and every zero
    row the one shared empty row over 1."""
    c = data.draw(st.integers(2, 5))
    x = data.draw(fractions.filter(bool))
    left = data.draw(st.lists(st.lists(fractions, min_size=c, max_size=c), max_size=3))
    a = Matrix.from_rows([*left, [0] * c, [x, -x] + [0] * (c - 2)])
    n = data.draw(st.integers(1, 5))
    right = data.draw(st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=c - 1, max_size=c - 1))
    b = Matrix.from_rows([right[0], *right])  # rows 0 and 1 equal, so a's last row cancels
    want = Matrix.from_rows(
        [[sum(r[k] * dense_row(b, k)[j] for k in range(c)) for j in range(n)] for r in dense_rows(a)]
    )
    got = a.mul(b)
    assert got == want and (got.ints, got.dens) == (want.ints, want.dens)
    zero = [i for i, r in enumerate(got.ints) if not r]
    assert zero[-2:] == [a.rows - 2, a.rows - 1]
    assert {id(got.ints[i]) for i in zero} == {id(got.ints[-1])}
    assert all(got.dens[i] == 1 for i in zero)


def test_add_mixed_denominators_and_cancelling_rows():
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = Matrix.from_rows([[half, 1, 0], [third, 0, -half], [0, 0, 0]])
    b = Matrix.from_rows([[half, -1, third], [-third, 0, half], [0, 0, third]])
    got = a.add(b)
    assert [dict(r) for r in got.ints] == [{0: 3, 2: 1}, {}, {2: 1}]
    assert got.dens == (3, 1, 3)
    assert got.add(got.scale(-1)) == Matrix.zero(3, 3)
    assert got.add(got.scale(-1)).dens == (1, 1, 1)


def test_negative_matrix_sizes_are_refused():
    for make in (lambda: Matrix.zero(-1, 2), lambda: Matrix.zero(2, -1), lambda: Matrix.identity(-1),
                 lambda: Matrix(0, -3, [])):
        with pytest.raises(DimensionMismatch, match="negative"):
            make()
    assert (Matrix.zero(0, 3).rows, Matrix.zero(3, 0).cols, Matrix.identity(0).rows) == (0, 0, 0)


def test_add_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2).add(Matrix.zero(2, 3))
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2).add(Matrix.zero(3, 2))


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zero(2, 3)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_basis_examples():
    assert kernel_basis(Matrix.identity(4)).rows == 0
    zero23 = Matrix.zero(2, 3)
    basis = kernel_basis(zero23)
    assert basis.rows == 3
    m = Matrix.from_rows([[1, 1, 0]])
    basis = kernel_basis(m)
    assert basis.rows == 2
    for v in dense_rows(basis):
        assert all(x == 0 for x in mul_vector(m, v))


def test_solve_examples():
    eye = Matrix.identity(3)
    assert solve_vector(eye, (1, 2, 3)) == (1, 2, 3)
    assert solve_vector(Matrix.zero(2, 2), (1, 0)) is None
    m = Matrix.from_rows([[1, 0], [0, 0]])
    x = solve_vector(m, (3, 0))
    assert x is not None and mul_vector(m, x) == (3, 0)
    # integer rows in and out: x = b / 4 in lowest terms, zero left out
    assert solve(eye, {0: 2, 2: 6}, 4) == ({0: 1, 2: 3}, 2)
    assert solve(eye, {}) == ({}, 1)
    with pytest.raises(DimensionMismatch):
        solve(eye, {3: 1})


def test_quotient_data_examples():
    e1, e2 = (1, 0, 0), (0, 1, 0)
    dim, reps = quotient_data(Matrix.from_rows([e1, e2]), Matrix.from_rows([e1]))
    assert dim == 1
    space = RowSpace([e1])
    assert all(not space.contains(r) for r in dense_rows(reps))
    assert quotient_data(Matrix.from_rows([e1, e2]), Matrix.from_rows([e1, e2]))[0] == 0
    assert quotient_data(Matrix.identity(3), Matrix.zero(0, 3))[0] == 3


def test_quotient_data_rejects_outside_vectors():
    with pytest.raises(SubspaceViolation):
        quotient_data(Matrix.from_rows([(1, 0, 0)]), Matrix.from_rows([(0, 1, 0)]))


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 2, 0)],  # entry 2 at its free column
        [(1, 0, 0), (1, 1, 0)],  # second row has the first row's free column
        [(0, 1, 0), (1, 0, 0)],  # free columns descending
        [(1, 0, 0), (1, 0, 0)],  # one free column twice
        [(0, 0, 0)],  # no free column at all
    ],
    ids=["entry", "second-free", "descending", "repeated", "zero-row"],
)
def test_quotient_data_rejects_rows_not_in_kernel_form(rows):
    with pytest.raises(DimensionMismatch):
        quotient_data(Matrix.from_rows(rows), Matrix.zero(0, 3))


def test_quotient_data_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        quotient_data(Matrix.identity(3), Matrix.zero(0, 2))


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_rank_nullity_and_kernel_exactness(m):
    basis = kernel_basis(m)
    assert rank(m) + basis.rows == m.cols
    for v in dense_rows(basis):
        assert all(x == 0 for x in mul_vector(m, v))


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.data())
def test_solve_consistency(m, data):
    x = data.draw(
        st.lists(fractions, min_size=m.cols, max_size=m.cols), label="x"
    )
    b = mul_vector(m, x)
    got = solve_vector(m, b)
    assert got is not None
    assert mul_vector(m, got) == b


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.data())
def test_solve_detects_inconsistency(m, data):
    b = data.draw(st.lists(fractions, min_size=m.rows, max_size=m.rows))
    got = solve_vector(m, tuple(b))
    if got is None:
        aug = Matrix.from_rows(
            [list(dense_row(m, i)) + [bv] for i, bv in enumerate(b)]
        )
        assert rank(aug) == rank(m) + 1
    else:
        assert mul_vector(m, got) == tuple(b)


def _assert_rref_matches_oracle(m: Matrix):
    _assert_reduced_basis(m, *oracle_rref(dense_rows(m)))


def test_rref_matches_dense_oracle():
    rng = random.Random(11)
    for _ in range(200):
        r, c = rng.randint(0, 5), rng.randint(1, 6)
        m = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(c)]
            for _ in range(r)
        ]
        _assert_rref_matches_oracle(Matrix(r, c, m))


def test_rref_edge_shapes():
    _assert_rref_matches_oracle(Matrix(0, 3, []))
    _assert_rref_matches_oracle(Matrix(3, 0, [[], [], []]))
    _assert_rref_matches_oracle(Matrix.zero(3, 4))
    m = Matrix.from_rows([[0, 0, 0, 0], [0, 2, 0, 4], [0, 0, 0, 0], [0, 1, 0, 2]])
    _assert_rref_matches_oracle(m)
    assert rank(m) == 1
    assert dense_rows(kernel_basis(m)) == [(1, 0, 0, 0), (0, 0, 1, 0), (0, -2, 0, 1)]


def test_solve_rank_deficient_augmented():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 0]])
    x = solve_vector(m, (2, 4, 0))
    assert x == (2, 0, 0)
    assert solve(m, {0: 2, 1: 4}) == ({0: 2}, 1)
    assert solve_vector(m, (2, 5, 0)) is None
    assert solve_vector(m, (2, 4, 1)) is None
    assert solve_vector(Matrix(0, 2, []), ()) == (0, 0)


@pytest.mark.parametrize("name", sorted(corpus.ALGEBRA_FILES))
def test_rref_matches_oracle_on_corpus_coboundaries(name):
    alg = corpus.algebra(name)
    for p in range(3):
        _assert_rref_matches_oracle(coboundary_matrix_self(alg, p))


@pytest.mark.parametrize("name", sorted(corpus.MORPHISM_FILES))
def test_rref_matches_oracle_on_morphism_coboundaries(name):
    phi = corpus.morphism(name)
    tc = triple_complex(phi)
    for m in range(3):
        _assert_rref_matches_oracle(coboundary_matrix_module(phi, m))
        _assert_rref_matches_oracle(tc.delta_matrix(m))


def test_rref_matches_oracle_on_dense_conjugates():
    """Dense rational coboundaries, where pivot rows do get rewritten."""
    for alg in conjugated_cases():
        for p in range(2):
            _assert_rref_matches_oracle(coboundary_matrix_self(alg, p))


def test_echelon_rarely_rewrites_pivot_rows(monkeypatch):
    """Every call of ``_primitive`` makes a new pivot row or rewrites one.
    Taking rows by descending leading column keeps the rewrites of the
    dense p = 2 coboundary below (576x96, rank 85) at 102; taking them by
    ascending leading column makes 836."""
    p, p_inv = _random_invertible(random.Random(3), 4)
    m = coboundary_matrix_self(conjugate(corpus.algebra("a1"), p, p_inv, "a1~dense"), 2)
    calls = []
    primitive = linalg._primitive
    monkeypatch.setattr(linalg, "_primitive", lambda row, lead: calls.append(lead) or primitive(row, lead))
    pivots = len(_echelon(m.ints))
    assert (m.rows, m.cols, pivots) == (576, 96, 85)
    assert len(calls) - pivots <= 2 * pivots


def _assert_reduced_basis(m: Matrix, want_rows, want_pivots):
    """``_echelon`` and ``kernel_basis`` of m against an oracle RREF of the
    same row space: ascending pivots, primitive rows with a positive pivot
    entry, zero on every other pivot column, and each row over its pivot
    entry equal to the oracle's row."""
    reduced = _echelon(m.ints)
    pivots = [pc for pc, _ in reduced]
    assert pivots == list(want_pivots) == sorted(set(pivots))
    for (pc, r), want in zip(reduced, want_rows):
        assert gcd(*r.values()) == 1 and r[pc] > 0
        assert not set(pivots) & (r.keys() - {pc})
        assert [Fraction(r.get(j, 0), r[pc]) for j in range(m.cols)] == list(want)
    kernel = []
    for f in (f for f in range(m.cols) if f not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for pc, want in zip(pivots, want_rows):
            v[pc] = -want[f]
        kernel.append(tuple(v))
    assert dense_rows(kernel_basis(m)) == kernel


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_echelon_is_row_order_invariant(data):
    """The reduced basis of a rational row space does not depend on the
    order of its rows, on repeated, scaled or zero rows, or on whether the
    rows come as Fractions or scaled to ints."""
    n = data.draw(st.integers(1, 6), label="length")
    vec = st.lists(_sparse_fractions, min_size=n, max_size=n)
    base = data.draw(st.lists(vec, max_size=5), label="rows")
    rows = list(base)
    if base:
        rows += data.draw(st.lists(st.sampled_from(base), max_size=2), label="repeated")
        scaled = st.lists(st.tuples(st.sampled_from(base), fractions.filter(bool)), max_size=2)
        rows += [[c * x for x in r] for r, c in data.draw(scaled, label="scaled")]
    rows += [[Fraction(0)] * n] * data.draw(st.integers(0, 2), label="zero rows")
    rows = data.draw(st.permutations(rows), label="order")
    want_rows, want_pivots = oracle_rref(base)
    int_rows = []
    for r in rows:
        d = lcm(*(x.denominator for x in r))
        int_rows.append([int(x * d) for x in r])
    for m in (Matrix(len(rows), n, rows), Matrix(len(rows), n, int_rows)):
        _assert_reduced_basis(m, want_rows, want_pivots)


@pytest.mark.parametrize("name", sorted(corpus.ALGEBRA_FILES))
def test_echelon_is_row_order_invariant_on_corpus_coboundaries(name):
    rng = random.Random(name)
    alg = corpus.algebra(name)
    for p in range(3):
        m = coboundary_matrix_self(alg, p)
        want_rows, want_pivots = oracle_rref(dense_rows(m))
        for rows in (list(m.data), list(m.ints)):
            rng.shuffle(rows)
            shuffled = Matrix(m.rows, m.cols, rows)
            _assert_reduced_basis(shuffled, want_rows, want_pivots)


# 1-6 rows of 6 entries and a column count 1-6, the rows cut to it: each
# part shrinks on its own, where a ``flatmap`` over the column count would
# redraw the rows whenever that count shrank.
_int_matrices = st.tuples(
    st.lists(st.lists(st.sampled_from((-3, -2, -1, 0, 0, 0, 1, 2, 3)), min_size=6, max_size=6),
             min_size=1, max_size=6),
    st.integers(1, 6),
).map(lambda rows_cols: [row[: rows_cols[1]] for row in rows_cols[0]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_int_matrices, st.lists(fractions, min_size=6, max_size=6), st.lists(fractions, min_size=6, max_size=6))
# rows are taken with leading columns 2, 1, 0, 0: the third row meets only
# the unit pivot of column 1 (multiplier 1), the fourth meets that one and
# the pivot entries 3 and 2 of columns 0 and 2 (multiplier 6)
@example([[0, 0, 2, 1], [0, 1, 0, 1], [3, 1, 0, 0], [1, 1, 1, 0]], [1] * 6, [1, 0, 2, 0, 0, 0])
def test_integer_elimination_matches_row_space_oracle(rows, x, b):
    """``_echelon``, ``rank``, ``kernel_basis`` and ``solve`` on integer
    matrices whose pivot entries are units or not, against the Fraction
    ``RowSpace``: the reduced rows lie in the row space, lead at their pivot
    and are zero on the other pivots, and there are rank of them."""
    m = Matrix.from_rows(rows)
    space = RowSpace(rows)
    reduced = _echelon(m.ints)
    pivots = {pc for pc, _ in reduced}
    assert len(reduced) == rank(m) == space.rank
    for pc, r in reduced:
        assert min(r) == pc and r[pc] > 0 and gcd(*r.values()) == 1
        assert not pivots & (r.keys() - {pc})
        assert space.contains(dense(r, 1, m.cols))
    kernel = dense_rows(kernel_basis(m))
    assert len(kernel) == m.cols - space.rank == RowSpace(kernel).rank
    assert all(not any(mul_vector(m, v)) for v in kernel)
    target = mul_vector(m, x[: m.cols])
    got = solve_vector(m, target)
    assert got is not None and mul_vector(m, got) == target
    b = tuple(b[: m.rows])
    got = solve_vector(m, b)
    assert (got is not None) == RowSpace(column(m, j) for j in range(m.cols)).contains(b)
    assert got is None or mul_vector(m, got) == b


def test_row_space_incremental_rank():
    space = RowSpace()
    assert space.add((1, 0, 0))
    assert not space.add((2, 0, 0))
    assert space.add((1, 1, 0))
    assert space.rank == 2
    assert space.contains((0, 1, 0))
    assert not space.contains((0, 0, 1))


def test_sparse_rows_match_dense_construction():
    dense = Matrix.from_rows([[1, 0, Fraction(1, 2)], [0, 0, 0]])
    sparse = Matrix(2, 3, [{0: Fraction(1), 2: Fraction(1, 2), 1: Fraction(0)}, {}])
    assert sparse == dense and hash(sparse) == hash(dense)
    assert sparse.data == ({0: 1, 2: Fraction(1, 2)}, {})
    assert dense_row(sparse, 1) == (0, 0, 0) and dense_row(sparse, 0) == (1, 0, Fraction(1, 2))
    with pytest.raises(IndexError):
        dense_row(sparse, 2)
    with pytest.raises(DimensionMismatch):
        Matrix(2, 3, [{3: Fraction(1)}, {}])
    with pytest.raises(DimensionMismatch):
        Matrix(3, 3, [{}, {}])
    # only ints and Fractions are exact; rational text is the JSON reader's
    for bad in (0.0, "1/2", "3"):
        with pytest.raises(TypeError):
            Matrix(1, 2, [[bad, 1]])
        with pytest.raises(TypeError):
            linalg.frac(bad)
    # int, Fraction, mixed and per-row-denominator rows: equal value, equal hash
    want = Matrix.from_rows([[Fraction(1, 2), 0, -3], [Fraction(2, 3), Fraction(-1, 6), 0]])
    for rows in (
        [{0: Fraction(1, 2), 2: -3}, {0: Fraction(4, 6), 1: Fraction(-1, 6)}],
        [{0: Fraction(1, 2), 2: Fraction(-3), 1: 0}, {1: Fraction(-2, 12), 0: Fraction(2, 3)}],
        [[Fraction(2, 4), 0, Fraction(-6, 2)], [Fraction(2, 3), Fraction(-1, 6), 0]],
    ):
        m = Matrix(2, 3, rows) if isinstance(rows[0], dict) else Matrix.from_rows(rows)
        assert m == want and hash(m) == hash(want)
    assert want.ints == ({0: 1, 2: -6}, {0: 4, 1: -1}) and want.dens == (2, 6)
    ints = Matrix(2, 2, [{0: 3, 1: 0}, {1: -2}])
    assert ints == Matrix.from_rows([[3, 0], [0, Fraction(-4, 2)]])
    assert hash(ints) == hash(Matrix.from_rows([[Fraction(3), 0], [0, Fraction(-2)]])) and ints.dens == (1, 1)
    # kernel rows of the primitive row (4, 2, 1): -2/4 is stored as -1 over 2
    z = kernel_basis(Matrix.from_rows([[4, 2, 1]]))
    assert z.ints == ({0: -1, 1: 2}, {0: -1, 2: 4}) and z.dens == (2, 4)
    want = Matrix(2, 3, [{0: Fraction(-2, 4), 1: 1}, {0: Fraction(-1, 4), 2: 1}])
    assert z == want and hash(z) == hash(Matrix.from_rows([[Fraction(-1, 2), 1, 0], [Fraction(-1, 4), 0, 1]]))


@pytest.mark.parametrize("seed", range(20))
def test_transpose_matches_the_dense_fraction_transpose(seed):
    """On rational matrices whose rows have different denominators the
    transpose is the dense Fraction transpose, in lowest terms, and
    transposes back to an equal matrix."""
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    row_dens = [rng.choice([1, 2, 3, 4, 9, 35]) for _ in range(rows)]
    entries = [
        [Fraction(rng.randint(-9, 9), d) if rng.random() < 0.6 else 0 for _ in range(cols)]
        for d in row_dens
    ]
    m = Matrix(rows, cols, entries)
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert dense_rows(t) == [column(m, j) for j in range(cols)]
    assert t == Matrix(cols, rows, [column(m, j) for j in range(cols)])
    assert t.transpose() == m and hash(t.transpose()) == hash(m)


def test_matrix_takes_dense_and_sparse_rows_mixed():
    """``Matrix(...)`` coerces each row on its own, dense (any iterable) or
    a sparse dict, and checks the row count, each dense length and each
    sparse column."""
    want = Matrix.from_rows([[Fraction(1, 2), 0, 3], [0, 0, 0], [0, Fraction(-4, 6), 0]])
    mixed = [(Fraction(1, 2), 0, 3), {}, {1: Fraction(-2, 3), 2: 0}]
    for rows in (mixed, [{0: Fraction(1, 2), 2: 3}, iter([0, 0, 0]), [0, Fraction(-2, 3), 0]]):
        m = Matrix(3, 3, rows)
        assert m == want and hash(m) == hash(want) and dense_rows(m) == dense_rows(want)
    for bad in (
        [(Fraction(1, 2), 0), {}, {}],  # a short dense row
        [[1, 0, 0], {3: 1}, {}],  # a sparse column out of range
        [[1, 0, 0], {-1: 1}, {}],
        [[1, 0, 0], {}],  # a row too few
        [[1, 0, 0], {}, {}, {}],  # a row too many
    ):
        with pytest.raises(DimensionMismatch):
            Matrix(3, 3, bad)


def test_matrix_rejects_float_column_key():
    with pytest.raises(DimensionMismatch):
        Matrix(1, 3, [{1.0: 1}])


def test_matrix_rejects_bool_column_key():
    with pytest.raises(DimensionMismatch):
        Matrix(1, 3, [{True: 1}])


def test_matrix_is_immutable_and_equal_by_value():
    """Of Fraction input, of int input and of a kernel basis: no attribute
    can be set, rows and denominators are tuples, the Fraction view holds
    Fractions, and a matrix rebuilt from that view is equal, hash included."""
    for m in (
        Matrix.from_rows([[1, 0], [0, Fraction(1, 2)]]),
        Matrix(2, 2, [{0: 1}, {1: 2}]),
        kernel_basis(Matrix.from_rows([[1, 2, 0, 4], [0, 0, 1, 3]])),
    ):
        before = hash(m)
        for name in (*Matrix.__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
        assert type(m.ints) is type(m.dens) is type(m.data) is tuple
        assert all(type(x) is Fraction for r in m.data for x in r.values())
        rebuilt = Matrix(m.rows, m.cols, m.data)
        assert hash(m) == before == hash(rebuilt) and m == rebuilt


def _quotient_or_violation(quotient, z_basis, b_basis):
    try:
        return quotient(z_basis, b_basis)
    except SubspaceViolation:
        return "violation"


_sparse_fractions = st.one_of(st.just(Fraction(0)), fractions)


def _dense_quotient(z: Matrix, b: Matrix):
    dim, reps = quotient_data(z, b)
    return dim, dense_rows(reps)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quotient_matches_oracle(data):
    """Z from the kernel of a random sparse rational matrix; B from integer
    combinations of Z rows, zero and repeated rows, and sometimes a vector
    drawn freely, which may lie outside span Z: both sides raise, or agree
    on (dim, reps)."""
    n = data.draw(st.integers(1, 7), label="length")
    vec = st.lists(_sparse_fractions, min_size=n, max_size=n).map(tuple)
    delta_out = data.draw(st.lists(vec, max_size=5), label="delta_out")
    z = kernel_basis(Matrix(len(delta_out), n, delta_out))
    z_basis = dense_rows(z)
    coeffs = st.lists(st.integers(-2, 2), min_size=z.rows, max_size=z.rows)

    def combine(cs):
        return tuple(sum((c * v[j] for c, v in zip(cs, z_basis)), Fraction(0)) for j in range(n))

    b_basis = [combine(cs) for cs in data.draw(st.lists(coeffs, max_size=4), label="b")]
    b_basis += [(Fraction(0),) * n] * data.draw(st.integers(0, 1), label="zero b")
    if b_basis:
        b_basis += data.draw(st.lists(st.sampled_from(b_basis), max_size=2), label="repeated b")
    b_basis += data.draw(st.lists(vec, max_size=1), label="free b")
    b_basis = data.draw(st.permutations(b_basis), label="border")
    want = _quotient_or_violation(oracle_quotient, z_basis, b_basis)
    b = Matrix(len(b_basis), n, b_basis)
    assert _quotient_or_violation(_dense_quotient, z, b) == want


def _consecutive_pairs(matrices):
    """(incoming, outgoing) differentials: the bottom slot, then each pair."""
    yield None, matrices[0]
    yield from zip(matrices, matrices[1:])


def _assert_quotient_matches_oracle(delta_in, delta_out):
    z = kernel_basis(delta_out)
    b = Matrix.zero(0, delta_out.cols) if delta_in is None else delta_in.transpose()
    assert _dense_quotient(z, b) == oracle_quotient(dense_rows(z), dense_rows(b))


def _assert_kernel_form(delta: Matrix):
    """Each kernel row has a 1 at its largest column, which ascends, no
    other row's largest column, and lies in the kernel."""
    z = kernel_basis(delta)
    free = [max(r) for r in z.data]
    assert free == sorted(set(free)) and z.rows == delta.cols - rank(delta)
    for f, r in zip(free, z.data):
        assert r[f] == 1 and not set(free) & (r.keys() - {f})
    assert delta.mul(z.transpose()).is_zero()


@pytest.mark.parametrize("name", sorted(corpus.ALGEBRA_FILES))
def test_quotient_matches_oracle_on_corpus_complexes(name):
    alg = corpus.algebra(name)
    for pair in _consecutive_pairs([coboundary_matrix_self(alg, p) for p in range(3)]):
        _assert_quotient_matches_oracle(*pair)


@pytest.mark.parametrize("name", sorted(corpus.MORPHISM_FILES))
def test_quotient_matches_oracle_on_morphism_complexes(name):
    phi = corpus.morphism(name)
    tc = triple_complex(phi)
    module = [coboundary_matrix_module(phi, m) for m in range(3)]
    for pair in _consecutive_pairs(module):
        _assert_quotient_matches_oracle(*pair)
    for pair in _consecutive_pairs([tc.delta_matrix(m) for m in range(3)]):
        _assert_quotient_matches_oracle(*pair)


def test_kernel_form_on_corpus_and_dense_complexes():
    p, p_inv = _random_invertible(random.Random(3), 4)
    dense = conjugate(corpus.algebra("a1"), p, p_inv, "a1~dense")
    for alg in [*(corpus.algebra(k) for k in corpus.ALGEBRA_FILES), dense]:
        for deg in range(3):
            _assert_kernel_form(coboundary_matrix_self(alg, deg))
    for name in sorted(corpus.MORPHISM_FILES):
        phi = corpus.morphism(name)
        tc = triple_complex(phi)
        for m in range(3):
            _assert_kernel_form(coboundary_matrix_module(phi, m))
            _assert_kernel_form(tc.delta_matrix(m))


def test_from_ints_keeps_rows_in_lowest_terms_and_reduces_the_rest():
    """A row already in lowest terms is kept as the same object, whether it
    is another matrix's row or a fresh dict; a row that reduces becomes a
    new row; no input row is mutated."""
    shared, fresh, reducible = Matrix(1, 3, [{0: 2, 2: 3}]).ints[0], {1: 4}, {0: 2, 1: 4}
    for dens in ([1, 1], [5, 1, 2]):
        ints = [shared, fresh, reducible][: len(dens)]
        m = Matrix.from_ints(len(ints), 3, ints, dens)
        assert m.ints[0] is shared and m.ints[1] is fresh
    assert (m.ints[2], m.dens) == ({0: 1, 1: 2}, (5, 1, 1)) and m.ints[2] is not reducible
    assert (shared, fresh, reducible) == ({0: 2, 2: 3}, {1: 4}, {0: 2, 1: 4})


def test_matrix_rows_are_not_tracked_by_cyclic_gc():
    """Rows are plain dicts of ints, which CPython's cyclic collector does
    not track, so 10^5-10^6 assembled rows cost it nothing: assembled self
    and cone differentials, their kernels and transposes, and a product."""
    mats = [coboundary_matrix_self(corpus.algebra("b3"), p) for p in range(4)]
    tc = triple_complex(corpus.morphism("a3_b3"))
    mats += [tc.delta_matrix(m) for m in range(3)]
    mats += [f(m) for m in list(mats) for f in (kernel_basis, Matrix.transpose)]
    product = mats[1].transpose().mul(mats[1])
    assert not product.is_zero()
    rows = [r for m in (*mats, product) for r in m.ints]
    assert rows and not any(map(gc.is_tracked, rows))
