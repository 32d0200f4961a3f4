import random
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, permutations
from math import comb, gcd, lcm
from types import SimpleNamespace

import pytest

from catalog import (
    _random_invertible,
    base_algebras,
    conjugate,
    conjugated_isomorphism,
    conjugated_morphism,
    random_symmetric,
    simple_a4,
    simple_a5,
    symmetric_form,
)
from oracles import (
    as_flat,
    cocycle_basis,
    cochain_value,
    coeffs,
    delta_value,
    dense,
    dense_rows,
    mul_vector,
    oracle_delta_eval,
    oracle_matrix,
    representatives,
    unit,
)

from nliecoh.algebra import NLieAlgebra, validate_algebra
from nliecoh.corpus import MORPHISM_FILES, algebra, morphism
from nliecoh.cochains import (
    Cochain,
    CochainSpace,
    coboundary_matrix_module,
    coboundary_matrix_self,
    cohomology,
    module_cohomology,
    self_cohomology,
)
from nliecoh.errors import (
    ArityMismatch,
    BrokenComplex,
    DegreeMismatch,
    DimensionMismatch,
    InvalidAlgebra,
    InvalidMorphism,
)
from nliecoh.linalg import Matrix, kernel_basis
from nliecoh.morphisms import Morphism, TripleComplex, morphism_cohomology, triple_complex, validate_morphism
from nliecoh.tables import sort_sign


CLASSICAL = ("sl2", "heis3", "aff1", "cross3")  # binary, so W = C(d, 1) = d


def _algebra(key: str) -> NLieAlgebra:
    """A bundled algebra, or a classical one of the test catalog."""
    return next(a for a in base_algebras() if a.name == key) if key in CLASSICAL else algebra(key)


def test_space_dimensions(alg_a1):
    # d_T * C(d, n-1)^(p-1) * C(d, n) for p >= 1, d_T * d for p = 0
    assert CochainSpace(alg_a1, 0, 4).dim == 16
    assert CochainSpace(alg_a1, 1, 4).dim == 16
    assert CochainSpace(alg_a1, 2, 4).dim == 96
    assert CochainSpace(alg_a1, 3, 4).dim == 576
    assert CochainSpace(alg_a1, 1, 3).dim == 12


@pytest.mark.parametrize("key", ["cross3", "a1"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_keys_are_a_first_block_then_a_lower_key(key, p):
    """The index facts the coboundary's tower rests on: key a * N + q of
    degree p is the a-th (n-1)-wedge followed by key q of degree p - 1, so a
    cochain's flat index is a * dim C^(p-1) + its index one degree lower."""
    alg = _algebra(key)
    d, n = alg.dim, alg.arity
    wedges = list(combinations(range(d), n - 1))
    for t in (alg.dim, 2):
        space, lower = CochainSpace(alg, p, t), CochainSpace(alg, p - 1, t)
        big_n = len(lower.domain_keys)
        assert len(space.domain_keys) == len(wedges) * big_n
        for a, w in enumerate(wedges):
            for q, rest in enumerate(lower.domain_keys):
                assert space.domain_keys[a * big_n + q] == (w,) + rest
        assert space.dim == comb(d, n - 1) ** (p - 1) * comb(d, n) * t
        assert space.dim == len(wedges) * lower.dim


def test_domain_key_order_is_deterministic(alg_a1):
    keys = CochainSpace(alg_a1, 2, 4).domain_keys
    assert keys[0] == ((0, 1), (0, 1, 2))
    assert keys[-1] == ((2, 3), (1, 2, 3))
    assert len(keys) == 24
    assert keys == CochainSpace(alg_a1, 2, 4).domain_keys


def test_eval_cochain_signs(alg_a1):
    """The value on raw arguments, which the raw-argument tests read through
    ``oracles.cochain_value``, is skew in the final block and vector."""
    space = CochainSpace(alg_a1, 1, 4)
    psi = Cochain(space, {(((0, 1, 2),), 1): 1})
    swapped = [(unit(4, 1), unit(4, 0))]
    assert cochain_value(psi, swapped, unit(4, 2)) == tuple(-x for x in unit(4, 1))
    repeated = [(unit(4, 0), unit(4, 1))]
    assert cochain_value(psi, repeated, unit(4, 1)) == (0,) * 4
    assert cochain_value(space.zero(), repeated, unit(4, 2)) == (0,) * 4


@pytest.mark.parametrize(
    "coeffs",
    [
        {(("nonsense",), 99): 0},
        {(((0, 2, 1),), 0): 0},  # a key that is not increasing
        {(((0, 1, 2),), 4): 0},  # target index past the end
        {(((0, 1, 2),), -1): 0},
        {(((0, 1, 2),), 1.0): 0},
        {(((0, 1, 2),), 1): 1, ((0, 1, 2), 1): 0},  # a key without its block tuple
    ],
)
def test_cochain_checks_every_key_even_at_zero(alg_a1, coeffs):
    """Like ``Matrix(...)`` with an out-of-range sparse column, the coercing
    constructor rejects a key or target index outside the space whatever the
    value, zero included."""
    space = CochainSpace(alg_a1, 1, 4)
    with pytest.raises(DimensionMismatch):
        Cochain(space, coeffs)
    with pytest.raises(DimensionMismatch):
        Matrix(1, 3, [{3: 0}])
    zero = Cochain(space, {(((0, 1, 2),), 1): 0, (((1, 2, 3),), 3): Fraction(0, 5)})
    assert zero.is_zero() and zero == space.zero() and (zero.row, zero.den) == ({}, 1)


def test_flat_roundtrip(alg_a1):
    rng = random.Random(5)
    space = CochainSpace(alg_a1, 2, 4)
    flat = [Fraction(rng.randint(-3, 3)) for _ in range(space.dim)]
    c = Cochain.from_flat(space, flat)
    assert list(as_flat(c)) == flat
    assert Cochain.from_flat(space, {i: x for i, x in enumerate(flat) if x}) == c
    for wrong in (flat[:-1], flat + [Fraction(0)]):
        with pytest.raises(DimensionMismatch):
            Cochain.from_flat(space, wrong)


@pytest.mark.parametrize("flat", [{-1: 1}, {16: 1}, {0: 1, 16: 1}, {-17: 1}])
def test_from_flat_rejects_sparse_index_out_of_range(alg_a1, flat):
    space = CochainSpace(alg_a1, 1, 4)
    assert space.dim == 16
    with pytest.raises(DimensionMismatch):
        Cochain.from_flat(space, flat)
    assert coeffs(Cochain.from_flat(space, {15: 1})) == {(((1, 2, 3),), 3): 1}


def test_abelian_coboundary_is_zero():
    alg = NLieAlgebra.abelian("ab", 3, 4)
    for p in (0, 1, 2):
        assert coboundary_matrix_self(alg, p).is_zero()


def test_coboundary_requires_valid_algebra(alg_a1):
    bad = NLieAlgebra.from_brackets(
        "bad",
        3,
        4,
        {
            (0, 1, 2): unit(4, 1),
            (0, 2, 3): unit(4, 3),
            (0, 1, 3): unit(4, 0),
        },
    )
    with pytest.raises(InvalidAlgebra):
        coboundary_matrix_self(bad, 1)
    # an invalid side is named before the map, which fails along with it
    for phi in (Morphism.identity(bad), Morphism.zero(bad, alg_a1), Morphism.zero(alg_a1, bad)):
        assert not phi.report.is_valid
        with pytest.raises(InvalidAlgebra):
            coboundary_matrix_module(phi, 1)


def test_triple_complex_shares_the_module_gate(alg_a1, alg_b1):
    """``TripleComplex`` refuses what ``coboundary_matrix_module`` refuses,
    with the same error: an invalid source or target as ``InvalidAlgebra``
    naming it, before the map, and then a map that breaks the morphism
    equation as ``InvalidMorphism``."""
    bad = NLieAlgebra.from_brackets(
        "bad", 3, 4, {(0, 1, 2): unit(4, 1), (0, 2, 3): unit(4, 3), (0, 1, 3): unit(4, 0)}
    )
    cases = [
        (Morphism.zero(bad, alg_a1), InvalidAlgebra),
        (Morphism.zero(alg_a1, bad), InvalidAlgebra),
        (Morphism(alg_a1, alg_b1, Matrix.identity(4)), InvalidMorphism),
    ]
    for phi, error in cases:
        with pytest.raises(error) as module:
            coboundary_matrix_module(phi, 1)
        with pytest.raises(error) as cone:
            TripleComplex(phi)
        assert str(cone.value) == str(module.value)
        assert ("'bad'" in str(cone.value)) == (error is InvalidAlgebra)


def test_module_requires_morphism(alg_a1, alg_b1):
    """The module coboundary takes a Morphism: one whose map breaks the
    morphism equation is refused there, and a map of the wrong arity or
    shape is refused when the Morphism is built."""
    with pytest.raises(InvalidMorphism):
        coboundary_matrix_module(Morphism(alg_a1, alg_b1, Matrix.identity(4)), 0)
    with pytest.raises(ArityMismatch):
        Morphism(alg_a1, NLieAlgebra.abelian("ab", 2, 4), Matrix.identity(4))
    with pytest.raises(DimensionMismatch):
        Morphism(alg_a1, alg_b1, Matrix.identity(3))


def test_identity_module_equals_self(corpus_algebras):
    for alg in corpus_algebras.values():
        for p in (0, 1):
            assert coboundary_matrix_module(Morphism.identity(alg), p) == coboundary_matrix_self(alg, p)


def test_zero_morphism_into_abelian_kernel(alg_a1):
    """With a zero map into an abelian target the differential reduces to
    the pullback of the bracket, so its kernel is the maps killing the
    derived span (e2 and e4 for this algebra)."""
    delta = coboundary_matrix_module(Morphism.zero(alg_a1, NLieAlgebra.abelian("ab", 3, 4)), 0)
    rep = cohomology(None, delta)
    assert rep.dim_z == rep.cocycles.rows == 8
    for v in dense_rows(rep.cocycles):
        for col in (1, 3):  # coefficients on the killed generators
            for t in range(4):
                assert v[col * 4 + t] == 0


def test_self_matrices_match_bruteforce(corpus_algebras):
    for alg in corpus_algebras.values():
        for p in (0, 1):
            assert coboundary_matrix_self(alg, p) == oracle_matrix(alg, p)


def test_output_skewness_last_block(alg_a1, alg_b1, phi_a1_b1):
    rng = random.Random(17)
    space = CochainSpace(alg_a1, 2, 4)
    f = Cochain(space, {
        (key, t): rng.randint(-3, 3)
        for key in space.domain_keys
        for t in range(4)
    })
    blocks = [(unit(4, 0), unit(4, 1)), (unit(4, 0), unit(4, 2))]
    vs = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in range(3)]
    delta = coboundary_matrix_self(alg_a1, 2)
    base = delta_value(delta, f, blocks + [vs[:2]], vs[2])
    for perm in permutations(range(3)):
        arranged = [vs[i] for i in perm]
        got = delta_value(delta, f, blocks + [arranged[:2]], arranged[2])
        sign, _ = sort_sign(perm)
        assert got == tuple(sign * x for x in base)


def test_module_skewness_and_oracle(phi_a1_b1):
    rng = random.Random(23)
    src, tgt = phi_a1_b1.source, phi_a1_b1.target
    space = CochainSpace(src, 1, 4)
    f = Cochain(space, {
        (key, t): rng.randint(-2, 2) for key in space.domain_keys for t in range(4)
    })
    vs = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in range(3)]
    lead = (unit(4, 0), unit(4, 2))
    delta = coboundary_matrix_module(phi_a1_b1, 1)
    base = delta_value(delta, f, [lead, vs[:2]], vs[2])
    swapped = delta_value(delta, f, [lead, (vs[2], vs[1])], vs[0])
    assert swapped == tuple(-x for x in base)
    assert coboundary_matrix_module(phi_a1_b1, 0) == oracle_matrix(
        src, 0, tgt, phi_a1_b1.matrix
    )



def _random_cochain(rng, space):
    return Cochain(space, {
        (key, t): rng.randint(-2, 2) for key in space.domain_keys for t in range(space.target_dim)
    })


def _random_raw_blocks(rng, d, n, count):
    """``count`` raw wedges of n-1 random vectors, plus one random vector."""
    vec = lambda: tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(d))
    return [tuple(vec() for _ in range(n - 1)) for _ in range(count)], vec()


@pytest.mark.parametrize(
    "key,p", [(key, p) for key in ["a1", "b1", "b2", "a3", "b3"] for p in (1, 2)] + [("b2", 3)]
)
def test_apply_self_matches_oracle_on_raw_arguments(corpus_algebras, key, p):
    """The assembled coboundary of f, evaluated at raw (non-basis)
    arguments, agrees with the value summed straight from its definition."""
    alg = corpus_algebras[key]
    rng = random.Random(f"{key}/{p}")
    f = _random_cochain(rng, CochainSpace(alg, p, alg.dim))
    blocks, z = _random_raw_blocks(rng, alg.dim, alg.arity, p + 1)
    got = delta_value(coboundary_matrix_self(alg, p), f, blocks, z)
    assert got == oracle_delta_eval(f, blocks, z, alg)
    assert any(got)


@pytest.mark.parametrize(
    "key,p", [(key, p) for key in sorted(MORPHISM_FILES) for p in (1, 2)] + [("a1_b1", 3), ("a3_b3", 3)]
)
def test_apply_module_matches_oracle_on_raw_arguments(key, p):
    phi = morphism(key)
    src, tgt = phi.source, phi.target
    rng = random.Random(f"{key}/{p}")
    f = _random_cochain(rng, CochainSpace(src, p, tgt.dim))
    blocks, z = _random_raw_blocks(rng, src.dim, src.arity, p + 1)
    got = delta_value(coboundary_matrix_module(phi, p), f, blocks, z)
    assert got == oracle_delta_eval(f, blocks, z, src, tgt, phi.matrix)



@pytest.mark.parametrize("bad", ["2*id", "3x4 zero"])
def test_apply_module_checks_its_map(alg_a1, alg_b1, bad):
    """The module coboundary that the raw-argument tests apply refuses a
    Morphism whose map is no morphism, at every degree and in its
    cohomology; a map of the wrong shape makes no Morphism."""
    if bad == "3x4 zero":
        with pytest.raises(DimensionMismatch):
            Morphism(alg_a1, alg_b1, Matrix.zero(3, 4))
        return
    phi = Morphism(alg_a1, alg_b1, Matrix.identity(4).scale(2))
    for m in (1, 2):
        with pytest.raises(InvalidMorphism):
            coboundary_matrix_module(phi, m)
    with pytest.raises(InvalidMorphism):
        module_cohomology(phi, 2)


@pytest.mark.parametrize("key", sorted(MORPHISM_FILES))
def test_module_matrix_matches_bruteforce_degree_one(key):
    """At m = 1 and, through one level of the action tower with phi != id,
    at m = 2."""
    phi = morphism(key)
    for m in (1, 2):
        got = coboundary_matrix_module(phi, m)
        assert got == oracle_matrix(phi.source, m, phi.target, phi.matrix), m


# at p = 4 the actions A_3(w) of the tower are built from A_2(w) and A_1(w)
SPLIT_CASES = [("a1", 2), ("b3", 3)] + [(key, p) for key in CLASSICAL for p in (2, 3)]
SPLIT_CASES += [(key, 4) for key in ("sl2", "heis3", "cross3")]


@pytest.mark.parametrize("key,p", SPLIT_CASES)
def test_self_matrix_matches_bruteforce_where_the_split_stacks(key, p):
    """From degree 2 up a coboundary is built from the one below it and
    the actions A_(p-1)(w) (two levels deep at degree 3, three at degree 4);
    the oracle sums every term at every key."""
    alg = _algebra(key)
    assert coboundary_matrix_self(alg, p) == oracle_matrix(alg, p)


def test_arity_four_matches_bruteforce():
    """At n = 4 the wedge map of delta_1 sorts a 3-wedge and one index, and
    the tower stacks on it: A_5 against the oracle at p = 0-2, and its
    cohomology H^1, H^2, H^3 = 10, 0, 0 (every derivation inner)."""
    alg = simple_a5()
    for p in (0, 1, 2):
        assert coboundary_matrix_self(alg, p) == oracle_matrix(alg, p), p
    assert [self_cohomology(alg, r).dim_h for r in (1, 2, 3)] == [10, 0, 0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_forms_give_n_lie_algebras(n):
    """The bracket of a symmetric (n+1)x(n+1) form B satisfies the
    fundamental identity; breaking B's symmetry in one entry breaks it."""
    rng = random.Random(1300 + n)
    d = n + 1
    for _ in range(10):
        b = random_symmetric(rng, d, d)
        assert symmetric_form(n, b).report.is_valid
        b[0][1] += rng.randint(1, 3)
        assert not symmetric_form(n, b).report.is_valid


@pytest.mark.parametrize("rank,dims", [
    (4, [6, 0, 0]), (3, [7, 1, 1]), (2, [9, 4, 6]), (1, [12, 9, 21]), (0, [16, 16, 96]),
])
def test_symmetric_form_cohomology_depends_on_rank_alone(rank, dims):
    """H^1, H^2, H^3 of the ternary algebra of a symmetric 4x4 form: the
    diagonal form of each rank, and random forms P D P^T of the same rank.
    Dimensions do not change under field extension, and over C a symmetric
    form is fixed by its rank up to change of basis."""
    diagonal = [[Fraction(int(i == j < rank)) for j in range(4)] for i in range(4)]
    rng = random.Random(1310 + rank)
    for b in [diagonal] + [random_symmetric(rng, 4, rank) for _ in range(2)]:
        alg = symmetric_form(3, b)
        assert [self_cohomology(alg, r).dim_h for r in (1, 2, 3)] == dims


def _assembly_calls(monkeypatch) -> dict:
    """Counts the calls of the two public assemblers, wrapped wherever a
    module of the package holds them, as a tracer wraps them."""
    calls = {}
    for name in ("coboundary_matrix_self", "coboundary_matrix_module"):
        original = getattr(sys.modules["nliecoh.cochains"], name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "nliecoh" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_requested_matrix_is_one_assembler_call(monkeypatch, alg_b3, phi_a3_b3):
    """The lower coboundaries a matrix is built from are assembled below
    the public functions, so their calls still count requested matrices.
    H^r takes delta_(r-2) from delta_(r-1)'s tower, and a cone's
    delta_matrix(m) its blocks out of degree m - 1."""
    calls = _assembly_calls(monkeypatch)
    self_cohomology(alg_b3, 4)
    assert calls == {"coboundary_matrix_self": 1, "coboundary_matrix_module": 0}
    calls.update(dict.fromkeys(calls, 0))
    tc = TripleComplex(phi_a3_b3)
    tc.delta_matrix(3)
    assert calls == {"coboundary_matrix_self": 2, "coboundary_matrix_module": 1}
    calls.update(dict.fromkeys(calls, 0))
    tc.delta_matrix(2)
    assert calls == {"coboundary_matrix_self": 0, "coboundary_matrix_module": 0}


def _same_matrix(a: Matrix, b: Matrix) -> bool:
    return (a.rows, a.cols, a.ints, a.dens) == (b.rows, b.cols, b.ints, b.dens)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("name", ["a1", "b1", "b2", "a3", "b3", "a1~dense"])
def test_self_floor_is_the_separate_coboundary(name, r):
    """delta_(r-2) handed back by delta_(r-1)'s tower has the (ints, dens)
    of a call of its own, on the corpus and a dense conjugate; b3 at r = 4
    is the deep-self H^4.  Nothing is handed back out of degree 0."""
    alg = _dense_conjugate_a1() if name == "a1~dense" else algebra(name)
    floor = []
    top = coboundary_matrix_self(alg, r - 1, floor)
    [below] = floor
    assert _same_matrix(top, coboundary_matrix_self(alg, r - 1))
    assert _same_matrix(below, coboundary_matrix_self(alg, r - 2))
    floor.clear()
    coboundary_matrix_self(alg, 0, floor)
    assert floor == []


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("key", sorted(MORPHISM_FILES))
def test_module_floor_is_the_separate_coboundary(key, r):
    phi = morphism(key)
    floor = []
    top = coboundary_matrix_module(phi, r - 1, floor)
    [below] = floor
    assert _same_matrix(top, coboundary_matrix_module(phi, r - 1))
    assert _same_matrix(below, coboundary_matrix_module(phi, r - 2))


@pytest.mark.parametrize("key", [*sorted(MORPHISM_FILES), "a1_b2_i1~"])
def test_cone_floor_is_the_fresh_lower_differential(key):
    """delta_matrix(m) merges and caches delta_matrix(m - 1) from its
    blocks' floors: equal to that differential built by a fresh complex,
    and the one the complex then returns for m - 1."""
    phi = conjugated_morphism() if key == "a1_b2_i1~" else morphism(key)
    for m in (1, 2, 3):
        tc = TripleComplex(phi)
        floor = []
        top = tc.delta_matrix(m, floor)
        [below] = floor
        assert below is tc.delta_matrix(m - 1)
        assert _same_matrix(below, TripleComplex(phi).delta_matrix(m - 1))
        assert _same_matrix(top, TripleComplex(phi).delta_matrix(m))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_each_group_makes_one_dd_product(monkeypatch, alg_b3, phi_a3_b3, r):
    """H^r at r >= 2 multiplies once inside ``cohomology``: delta_(r-1) by
    delta_(r-2), the floor of its tower, and reports what the two matrices
    built apart give."""
    cochains_mod = sys.modules["nliecoh.cochains"]
    mul, original = Matrix.mul, cochains_mod.cohomology
    products, inside = [], []

    def recorded_mul(a, b):
        if inside:
            products.append(((a.rows, a.cols), (b.rows, b.cols)))
        return mul(a, b)

    def recorded_cohomology(*args):
        inside.append(True)
        try:
            return original(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Matrix, "mul", recorded_mul)
    monkeypatch.setattr(cochains_mod, "cohomology", recorded_cohomology)
    fresh = Morphism(phi_a3_b3.source, phi_a3_b3.target, phi_a3_b3.matrix, "a3_b3 fresh")
    cases = [
        (self_cohomology, alg_b3, partial(coboundary_matrix_self, alg_b3)),
        (module_cohomology, phi_a3_b3, partial(coboundary_matrix_module, phi_a3_b3)),
        (morphism_cohomology, fresh, lambda p: TripleComplex(fresh).delta_matrix(p)),
    ]
    for group, subject, delta in cases:
        products.clear()
        rep = group(subject, r)
        d_out, d_in = delta(r - 1), delta(r - 2)
        assert products == [((d_out.rows, d_out.cols), (d_in.rows, d_in.cols))]
        apart = original(d_in, d_out)
        assert (rep.dim_z, rep.dim_b, rep.dim_h) == (apart.dim_z, apart.dim_b, apart.dim_h)
        assert _same_matrix(rep.classes, apart.classes)


def test_cohomology_report_fields(alg_a3):
    rep = self_cohomology(alg_a3, 2)
    assert (rep.dim_z, rep.dim_b, rep.dim_h) == (13, 4, 9)
    assert len(cocycle_basis(rep)) == rep.dim_z
    assert len(representatives(rep)) == rep.dim_h
    d2 = coboundary_matrix_self(alg_a3, 1)
    for v in cocycle_basis(rep):
        assert all(x == 0 for x in mul_vector(d2, v))


def test_broken_complex_detected():
    left = Matrix.identity(2)
    right = Matrix.identity(2)
    with pytest.raises(BrokenComplex):
        cohomology(left, right)


@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("make", [lambda: algebra("a1"), lambda: _dense_conjugate_a1()])
def test_broken_complex_detected_in_first_and_last_row(make, where):
    """delta_1 with 1 added at one entry of its first or last row, in a
    column whose delta_0 row is nonzero: the product is nonzero in that row
    alone, and the d∘d check finds it."""
    alg = make()
    d0, d1 = coboundary_matrix_self(alg, 0), coboundary_matrix_self(alg, 1)
    cohomology(d0, d1)
    i = range(d1.rows)[where]
    k = next(k for k in range(d0.rows) if d0.ints[k])
    rows = [dict(r) for r in d1.data]
    rows[i][k] = rows[i].get(k, 0) + 1
    planted = Matrix(d1.rows, d1.cols, rows)
    product = planted.mul(d0)
    assert [j for j in range(product.rows) if product.ints[j]] == [i]
    with pytest.raises(BrokenComplex):
        cohomology(d0, planted)


def test_differentials_that_do_not_compose_are_rejected_before_any_entry():
    """Only the shapes are read: objects without entries give
    DimensionMismatch, and so do matrices whose product would be nonzero."""
    with pytest.raises(DimensionMismatch):
        cohomology(SimpleNamespace(rows=3, cols=2), SimpleNamespace(rows=5, cols=4))
    with pytest.raises(DimensionMismatch):
        cohomology(Matrix.identity(2), Matrix.identity(3))


def test_d_d_check_scales_incoming_rows_to_one_denominator():
    """Rows of delta_in over 4 and 6 ({2, 1}/4 and {2, 1}/6) cancel in
    (2, -3) delta_in only once both are read over 12; one changed entry
    leaves a nonzero product."""
    delta_in = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 3), Fraction(1, 6)]])
    assert delta_in.dens == (4, 6)
    rep = cohomology(delta_in, Matrix.from_rows([[2, -3]]))
    assert (rep.dim_z, rep.dim_b, rep.dim_h) == (1, 1, 0)
    with pytest.raises(BrokenComplex):
        cohomology(delta_in, Matrix.from_rows([[2, -2]]))


def test_d_d_products_share_one_zero_row(monkeypatch, corpus_algebras):
    """The d∘d check is one ``Matrix.mul``, whose zero rows are one shared
    row: no row object, gcd or denominator is made per row of δ_out·δ_in.
    Every corpus algebra and morphism at r = 1-3, and a dense conjugate."""
    conj = conjugated_morphism()  # built before the patch, so its products are not recorded
    morphisms = [morphism(key) for key in sorted(MORPHISM_FILES)] + [conj]
    algebras = [*corpus_algebras.values(), conj.source, conj.target]
    products = []

    def record(a, b, mul=Matrix.mul):
        products.append(mul(a, b))
        return products[-1]

    monkeypatch.setattr(Matrix, "mul", record)
    for r in (1, 2, 3):
        for alg in algebras:
            self_cohomology(alg, r)
        for phi in morphisms:
            module_cohomology(phi, r)
            morphism_cohomology(phi, r)
    assert sum(p.rows for p in products) > 10 * len(products)
    for p in products:
        assert p.is_zero() and p.dens == (1,) * p.rows
        assert len({id(row) for row in p.ints}) <= 1


def test_degenerate_report_degree(alg_a1):
    with pytest.raises(DegreeMismatch):
        self_cohomology(alg_a1, 0)


def test_both_matrices_zero_gives_full_dim():
    alg = NLieAlgebra.abelian("ab", 3, 3)
    space_dim = CochainSpace(alg, 1, 3).dim
    rep = self_cohomology(alg, 2)
    assert rep.dim_h == space_dim


def _dense_conjugate_a1():
    p, p_inv = _random_invertible(random.Random(3), 4)
    return conjugate(algebra("a1"), p, p_inv, "a1~dense")


def _entries(m: Matrix):
    return [x for row in m.data for x in row.values()]


def _assert_int_product(delta: Matrix, f: Cochain):
    row, den = delta.mul_row(f.row, f.den)
    assert all(type(x) is int and x for x in row.values())
    assert den > 0 and gcd(den, *row.values()) == 1
    assert dense(row, den, delta.rows) == mul_vector(delta, as_flat(f))


def test_coboundary_entries_are_fractions(corpus_algebras):
    """Every algebra assembles on int tables over one denominator, rational
    structure constants included; every matrix's ``data`` view holds
    Fractions only, and every product with a cochain is an integer row in
    lowest terms equal to the Fraction sums.  On raw arguments the products
    agree with the oracle, the dense conjugate included."""
    dense = _dense_conjugate_a1()
    assert any(x.denominator > 1 for _, val in dense.structure for x in val)
    phis = [morphism(key) for key in sorted(MORPHISM_FILES)] + [Morphism.identity(dense)]
    seen_rational = False
    for alg in [*corpus_algebras.values(), dense]:
        for p in (0, 1, 2):
            entries = _entries(coboundary_matrix_self(alg, p))
            assert all(type(x) is Fraction for x in entries), (alg.name, p)
            seen_rational |= any(x.denominator > 1 for x in entries)
    for phi in phis:
        tc = triple_complex(phi)
        for m in (0, 1, 2):
            for mat in (coboundary_matrix_module(phi, m),
                        tc.delta_matrix(m)):
                assert all(type(x) is Fraction for x in _entries(mat)), (phi.name, m)
    assert seen_rational
    rng = random.Random(29)
    for alg, phi in [(corpus_algebras["a1"], morphism("a1_b1")), (dense, phis[-1])]:
        for p in (1, 2):
            f = _random_cochain(rng, CochainSpace(alg, p, alg.dim))
            blocks, z = _random_raw_blocks(rng, alg.dim, alg.arity, p + 1)
            delta = coboundary_matrix_self(alg, p)
            _assert_int_product(delta, f)
            assert delta_value(delta, f, blocks, z) == oracle_delta_eval(f, blocks, z, alg)
            g = _random_cochain(rng, CochainSpace(phi.source, p, phi.target.dim))
            delta = coboundary_matrix_module(phi, p)
            _assert_int_product(delta, g)
            want = oracle_delta_eval(g, blocks, z, phi.source, phi.target, phi.matrix)
            assert delta_value(delta, g, blocks, z) == want


@cache
def test_conjugated_morphism_has_distinct_denominators():
    phi = conjugated_morphism()
    algs = (phi.source, phi.target)
    dens = [lcm(*(x.denominator for _, v in a.structure for x in v)) for a in algs]
    assert dens + [lcm(*phi.matrix.dens)] == [5, 9, 3]
    assert phi.report.is_valid


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_module_matrix_matches_oracle_on_rational_morphism(m):
    phi = conjugated_morphism()
    got = coboundary_matrix_module(phi, m)
    assert any(d > 1 for d in got.dens)
    assert got == oracle_matrix(phi.source, m, phi.target, phi.matrix)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_self_matrix_matches_oracle_on_rational_algebra(p):
    alg = _dense_conjugate_a1()
    got = coboundary_matrix_self(alg, p)
    assert any(d > 1 for d in got.dens)
    assert got == oracle_matrix(alg, p)


@pytest.mark.parametrize("p", [1, 2])
def test_apply_module_matches_oracle_on_rational_morphism(p):
    phi = conjugated_morphism()
    src, tgt = phi.source, phi.target
    rng = random.Random(f"rational/{p}")
    f = _random_cochain(rng, CochainSpace(src, p, tgt.dim))
    blocks, z = _random_raw_blocks(rng, src.dim, src.arity, p + 1)
    got = delta_value(coboundary_matrix_module(phi, p), f, blocks, z)
    assert got == oracle_delta_eval(f, blocks, z, src, tgt, phi.matrix)
    assert any(got)


def _central_extension(alg: NLieAlgebra, m: int, omega) -> NLieAlgebra:
    """A ⊕ k^m with the bracket [x] + ω(x) on A and zero on k^m, for the
    dense flat coordinates ``omega`` of a degree-1 cochain A -> k^m."""
    d = alg.dim
    brackets = {
        key: alg.bracket(*(unit(d, i) for i in key)) + tuple(omega[pos * m : (pos + 1) * m])
        for pos, (key,) in enumerate(CochainSpace(alg, 1, m).domain_keys)
    }
    return NLieAlgebra.from_brackets(f"{alg.name}+{m}", alg.arity, d + m, brackets)


def test_central_extensions_validate_exactly_along_cocycles():
    """Along the zero map A -> k^m the module complex has trivial
    coefficients, and A ⊕ k^m with the bracket [x] + ω(x) passes
    ``validate_algebra`` exactly when δω = 0: the validator and the
    coboundary assembler share no code.  For ω' = ω + δλ, λ: A -> k^m,
    x ↦ x - λ(x) on A and the identity on k^m is an isomorphism from the
    extension by ω to the extension by ω', and x ↦ x + λ(x) is not one
    when δλ ≠ 0.  On the corpus, the dense conjugate of a1 and A_4, m = 1
    and 2."""
    rng = random.Random(14)
    draw = lambda size: [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]
    algs = [algebra(k) for k in ("a1", "b1", "b2", "a3", "b3")]
    algs += [conjugated_isomorphism(algebra("a1"), 1).source, simple_a4()]
    non_cocycles = coboundaries = 0
    for alg in algs:
        d = alg.dim
        for m in (1, 2):
            phi = Morphism.zero(alg, NLieAlgebra.abelian(f"k{m}", alg.arity, m))
            delta0, delta1 = coboundary_matrix_module(phi, 0), coboundary_matrix_module(phi, 1)
            z = dense_rows(kernel_basis(delta1))
            assert z
            for _ in range(6):
                weights = draw(len(z))
                cocycle = [sum(c * v for c, v in zip(weights, col)) for col in zip(*z)]
                for omega in (draw(delta1.cols), cocycle):
                    closed = not any(mul_vector(delta1, omega))
                    assert validate_algebra(_central_extension(alg, m, omega)).is_valid == closed, alg.name
                    non_cocycles += not closed
                lam = draw(d * m)  # λ(e_j) is lam[j * m : (j + 1) * m]
                d_lam = mul_vector(delta0, lam)
                shifted = [x + y for x, y in zip(cocycle, d_lam)]
                source, target = _central_extension(alg, m, cocycle), _central_extension(alg, m, shifted)
                for sign in (-1, 1):
                    cols = [unit(d, j) + tuple(sign * x for x in lam[j * m : (j + 1) * m]) for j in range(d)]
                    cols += [unit(d + m, d + t) for t in range(m)]
                    iso = validate_morphism(Morphism.from_columns(source, target, cols)).is_valid
                    assert iso == (sign == -1 or not any(d_lam)), (alg.name, m, sign)
                coboundaries += any(d_lam)
    assert non_cocycles == 12 and coboundaries >= 70  # the non-cocycles are b1's
