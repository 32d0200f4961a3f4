import random
from fractions import Fraction
from itertools import combinations

import pytest

from catalog import base_algebras, conjugated_isomorphism, conjugated_morphism
from oracles import (
    FundamentalObject,
    ad_action,
    coeffs,
    column,
    flat_cochain,
    flat_size,
    fundamental_bracket,
    module_action,
    oracle_morphism_residual,
    oracle_pull_matrix,
    representatives,
    unit,
    vectorize,
    wedge_decompose,
    wedge_image,
)

from nliecoh import morphisms
from nliecoh.algebra import Failure, NLieAlgebra, ValidationReport, validate_algebra
from nliecoh.cochains import (
    Cochain,
    CochainSpace,
    coboundary_matrix_module,
    coboundary_matrix_self,
    module_cohomology,
    self_cohomology,
)
from nliecoh.corpus import MORPHISM_FILES, algebra, morphism
from nliecoh.deformations import DeformedAlgebra, DeformedMorphism, extend_deformation
from nliecoh.errors import ArityMismatch, DegreeMismatch, DimensionMismatch, NotCocycle
from nliecoh.linalg import Matrix, rank
from nliecoh.morphisms import (
    Morphism,
    TripleComplex,
    morphism_cohomology,
    triple,
    triple_complex,
    validate_morphism,
)


def test_zero_and_corpus_morphisms_validate(corpus_algebras, phi_a1_b1, phi_a3_b3):
    algs = list(corpus_algebras.values())
    assert validate_morphism(Morphism.zero(algs[0], algs[1])).is_valid
    assert validate_morphism(phi_a1_b1).is_valid
    assert validate_morphism(phi_a3_b3).is_valid


def test_invalid_morphism_reports_failing_tuples(alg_a1, alg_b1):
    bad = Morphism.from_columns(
        alg_a1, alg_b1, [unit(4, 0), unit(4, 1), unit(4, 2), unit(4, 3)]
    )
    report = validate_morphism(bad)
    assert not report.is_valid
    assert all(f.part == "morphism" and len(f.key[0]) == 3 for f in report.failures)


def _oracle_report(phi):
    """Order-0 map-equation defect of the oracle, as a report."""
    res = oracle_morphism_residual(DeformedMorphism.trivial(phi, 0), 0)
    failures, values = [], coeffs(res)
    for key in phi.source.bracket_keys():
        residual = tuple(values.get(((key,), t), Fraction(0)) for t in range(phi.target.dim))
        if any(residual):
            failures.append(Failure("morphism", 0, (key,), residual))
    return ValidationReport(phi.name, "morphism", tuple(failures))


CASES = (*MORPHISM_FILES, "a1_b2_i1~", "a1~iso", "sl2~iso")


def _case(key):
    """Every corpus map has rank at most 2, so for these ternary algebras its
    pull vanishes from m = 1 on; the conjugated isomorphisms of ``a1`` and of
    the binary ``sl2`` have full rank and the denominators 10 and 4."""
    if key == "a1_b2_i1~":
        return conjugated_morphism()
    if key == "a1~iso":
        return conjugated_isomorphism(algebra("a1"), 1)
    if key == "sl2~iso":
        return conjugated_isomorphism({a.name: a for a in base_algebras()}["sl2"], 4)
    return morphism(key)


def _maps():
    """The corpus morphisms, the 5/9/3 conjugated one and the two conjugated
    isomorphisms of full rank."""
    return [_case(key) for key in CASES]


def test_validate_morphism_is_the_order0_defect():
    """Entry for entry, on the corpus and conjugated morphisms and on each of
    them plus two random matrices with entries in halves and thirds."""
    rng = random.Random(11)
    perturbed = []
    for phi in _maps():
        for k in range(2):
            noise = Matrix.from_rows(
                [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(phi.matrix.cols)]
                 for _ in range(phi.matrix.rows)]
            )
            perturbed.append(Morphism(phi.source, phi.target, phi.matrix.add(noise), f"{phi.name}+{k}"))
    for phi in _maps() + perturbed:
        report = validate_morphism(phi)
        assert report == _oracle_report(phi), phi.name
        assert all(type(x) is Fraction for f in report.failures for x in f.residual)
    assert all(validate_morphism(phi).is_valid for phi in _maps())
    invalid = [validate_morphism(phi) for phi in perturbed if not phi.report.is_valid]
    assert len(invalid) >= 14
    assert any(x.denominator > 1 for r in invalid for f in r.failures for x in f.residual)


def test_validate_morphism_returns_an_invalid_algebras_failures(alg_a1):
    """Either algebra failing the fundamental identity makes its failures the
    morphism's report, the source's first."""
    brackets = dict(alg_a1.structure)
    brackets[(0, 1, 3)] = unit(4, 0)
    bad = NLieAlgebra.from_brackets("bad", 3, 4, brackets)
    brackets[(0, 2, 3)] = (Fraction(1, 2), 0, 0, 0)
    worse = NLieAlgebra.from_brackets("worse", 3, 4, brackets)
    bad_failures = validate_algebra(bad).failures
    assert bad_failures and bad_failures != validate_algebra(worse).failures
    for phi in (Morphism.zero(bad, alg_a1), Morphism.zero(alg_a1, bad), Morphism.identity(bad),
                Morphism.zero(bad, worse)):
        assert validate_morphism(phi) == ValidationReport(phi.name, "morphism", bad_failures)
    unnamed = Morphism(alg_a1, bad, Matrix.zero(4, 4))
    assert validate_morphism(unnamed) == ValidationReport("morphism", "morphism", bad_failures)


def test_arity_mismatch():
    two = NLieAlgebra.abelian("two", 2, 3)
    three = NLieAlgebra.abelian("three", 3, 3)
    with pytest.raises(ArityMismatch):
        Morphism.zero(two, three)


def test_module_action_cases(alg_a1, phi_a1_b1, phi_a3_b3):
    zero = Morphism.zero(phi_a1_b1.source, phi_a1_b1.target)
    x = FundamentalObject.from_basis(4, (0, 2))
    assert module_action(zero, x, unit(4, 0)) == (0, 0, 0, 0)
    eye = Morphism.identity(alg_a1)
    for w in combinations(range(4), 2):
        fo = FundamentalObject.from_basis(4, w)
        for j in range(4):
            assert module_action(eye, fo, unit(4, j)) == ad_action(
                alg_a1, fo, unit(4, j)
            )
    # concrete instance: the image blocks multiply inside the target
    x = FundamentalObject.from_basis(4, (2, 3))
    tgt = phi_a3_b3.target
    expected = tgt.bracket(
        column(phi_a3_b3.matrix, 2), column(phi_a3_b3.matrix, 3), unit(4, 0)
    )
    assert module_action(phi_a3_b3, x, unit(4, 0)) == expected


def test_module_action_operator_identity(phi_a3_b3, phi_a1_b1):
    """Action of a block bracket equals the commutator of the actions."""
    for phi in (phi_a3_b3, phi_a1_b1):
        src = phi.source
        wedges = [
            FundamentalObject.from_basis(src.dim, w)
            for w in combinations(range(src.dim), src.arity - 1)
        ]
        for x in wedges:
            for y in wedges:
                xy = fundamental_bracket(src, x, y)
                for j in range(phi.target.dim):
                    z = unit(phi.target.dim, j)
                    lhs = module_action(phi, xy, z)
                    rhs1 = module_action(phi, x, module_action(phi, y, z))
                    rhs2 = module_action(phi, y, module_action(phi, x, z))
                    assert lhs == tuple(a - b for a, b in zip(rhs1, rhs2))


def test_wedge_image(phi_a3_b3):
    fo = FundamentalObject.from_basis(4, (2, 3))
    img = wedge_image(phi_a3_b3, fo)
    vecs = [column(phi_a3_b3.matrix, 2), column(phi_a3_b3.matrix, 3)]
    assert img.decomposition() == wedge_decompose(vecs)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("key", CASES)
def test_pull_matrix_matches_reference(key, m):
    phi = _case(key)
    got = TripleComplex(phi).pull_matrix(m)
    want = oracle_pull_matrix(phi, m)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.ints == want.ints
    assert got.dens == want.dens


def test_triple_dd_zero_for_corpus_morphisms():
    for key in ("a1_b1", "a3_b3", "a1_b2_i1", "a3_b3_i2"):
        tc = triple_complex(morphism(key))
        for m in (0, 1):
            assert tc.delta_matrix(m + 1).mul(tc.delta_matrix(m)).is_zero()


def test_naturality_identities(phi_a3_b3):
    tc = triple_complex(phi_a3_b3)
    src, tgt = phi_a3_b3.source, phi_a3_b3.target
    for m in (0, 1):
        dmod = coboundary_matrix_module(phi_a3_b3, m)
        assert dmod.mul(tc.post_matrix(m)) == tc.post_matrix(m + 1).mul(
            coboundary_matrix_self(src, m)
        )
        assert dmod.mul(tc.pull_matrix(m)) == tc.pull_matrix(m + 1).mul(
            coboundary_matrix_self(tgt, m)
        )


@pytest.mark.parametrize("key", ["a1~iso", "sl2~iso"])
def test_pull_naturality_and_dd_at_full_rank(key):
    """The pull of a rank-2 corpus map vanishes from m = 1 on, so the
    identities above check it only at m = 0; a full-rank map checks it
    where it is nonzero."""
    phi = _case(key)
    tc = TripleComplex(phi)
    for m in (0, 1, 2):
        dmod = coboundary_matrix_module(phi, m)
        assert not tc.pull_matrix(m + 1).is_zero()
        assert dmod.mul(tc.pull_matrix(m)) == tc.pull_matrix(m + 1).mul(
            coboundary_matrix_self(phi.target, m)
        )
    for m in (0, 1):
        assert tc.delta_matrix(m + 1).mul(tc.delta_matrix(m)).is_zero()


def test_degree0_coupling_formula(phi_a3_b3):
    """At the bottom degree the third slot is the commutator with the map."""
    rng = random.Random(3)
    tc = triple_complex(phi_a3_b3)
    src, tgt = phi_a3_b3.source, phi_a3_b3.target
    g1 = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
    g2 = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
    from nliecoh.deformations import cochain_matrix, linear_map_cochain

    t = triple(
        linear_map_cochain(CochainSpace(src, 0, 4), g1),
        linear_map_cochain(CochainSpace(tgt, 0, 4), g2),
        None,
    )
    out = tc.coboundary(t)
    got = cochain_matrix(out.parts[2])
    expected = phi_a3_b3.matrix.mul(g1).add(g2.mul(phi_a3_b3.matrix).scale(-1))
    assert got == expected


def test_abelian_zero_morphism_dims():
    src = NLieAlgebra.abelian("s", 3, 3)
    tgt = NLieAlgebra.abelian("t", 3, 2)
    phi = Morphism.zero(src, tgt)
    tc = triple_complex(phi)
    for r in (1, 2):
        rep = morphism_cohomology(phi, r)
        assert rep.dim_h == flat_size(tc.spaces(r - 1))


def test_vanishing_transport(corpus_algebras):
    """When all three constituent groups vanish, so does the triple group."""
    from nliecoh.cochains import self_cohomology
    from nliecoh.corpus import algebra

    checked = 0
    cases = [(morphism(k), r) for k in ("a1_b1", "a3_b3") for r in (2,)]
    # the identity on the rigid algebra satisfies the hypothesis one
    # degree up: both self groups and the module group below vanish
    cases.append((Morphism.identity(algebra("b3")), 3))
    for phi, r in cases:
        h_src = self_cohomology(phi.source, r).dim_h
        h_tgt = self_cohomology(phi.target, r).dim_h
        h_mod = module_cohomology(phi, r - 1).dim_h
        if h_src == 0 and h_tgt == 0 and h_mod == 0:
            assert morphism_cohomology(phi, r).dim_h == 0
            checked += 1
    assert checked >= 1


def test_cone_of_an_isomorphism_has_the_source_cohomology():
    """For a bijective phi, post - pull is onto in every degree and its
    kernel is isomorphic to C(A, A), so dim H^r of phi's triple complex is
    dim H^r(A, A).  The identity of every base algebra, and three
    conjugated isomorphisms whose pull is not the identity."""
    algs = base_algebras()
    maps = [Morphism.identity(a) for a in algs]
    sl2 = {a.name: a for a in algs}["sl2"]
    maps += [conjugated_isomorphism(a, seed) for a, seed in ((algebra("a1"), 1), (sl2, 4), (algebra("b3"), 2))]
    for phi in maps:
        for r in (1, 2, 3):
            want = self_cohomology(phi.source, r).dim_h
            assert morphism_cohomology(phi, r).dim_h == want, (phi.name, r)


def test_cohomologous_check(phi_a3_b3):
    rng = random.Random(9)
    tc = triple_complex(phi_a3_b3)
    # build a coboundary and recognise it
    alpha = flat_cochain(tc.spaces(0), [Fraction(rng.randint(-2, 2)) for _ in range(flat_size(tc.spaces(0)))])
    b = tc.coboundary(alpha)
    zero1 = flat_cochain(tc.spaces(1), {})
    witness = tc.cohomologous(b, zero1)
    assert witness is not None
    assert vectorize(tc.coboundary(witness)) == vectorize(b)
    # a genuine nonzero class has no witness
    rep = tc.cohomology(2)
    if rep.dim_h:
        cls = flat_cochain(tc.spaces(1), representatives(rep)[0])
        assert tc.cohomologous(cls, flat_cochain(tc.spaces(1), {})) is None
        # a - b is taken in that order: cls + b against cls gives b's witness
        shifted = flat_cochain(tc.spaces(1), [x + y for x, y in zip(vectorize(cls), vectorize(b))])
        for a, c, sign in ((shifted, cls, 1), (cls, shifted, -1)):
            w = tc.cohomologous(a, c)
            assert vectorize(tc.coboundary(w)) == tuple(sign * x for x in vectorize(b))
    with pytest.raises(NotCocycle):
        nb = flat_cochain(tc.spaces(1), [1] * flat_size(tc.spaces(1)))
        if not tc.is_cocycle(nb):
            tc.cohomologous(nb, zero1)
        else:  # pragma: no cover - not expected on this instance
            raise NotCocycle("instance unexpectedly degenerate")


def test_triple_shape_checks(phi_a3_b3):
    tc = triple_complex(phi_a3_b3)
    for m in (0, 1, 2):
        flat = [Fraction(i % 5 - 2) for i in range(flat_size(tc.spaces(m)))]
        t = flat_cochain(tc.spaces(m), flat)
        assert list(vectorize(t)) == flat
        assert flat_cochain(tc.spaces(m), {i: x for i, x in enumerate(flat) if x}) == t
        with pytest.raises(DimensionMismatch):
            flat_cochain(tc.spaces(m), flat[:-1])
    with pytest.raises(DegreeMismatch):
        triple(*flat_cochain(tc.spaces(1), {}).parts[:2], None)


def test_triple_complex_takes_only_its_own_cochains(phi_a3_b3):
    """A cochain on one space, or on another morphism's three, is no
    cochain of this complex: the coboundary, the cocycle check and the
    witness search raise DimensionMismatch rather than read its row.  A
    triple is no part of a triple, no bracket term and no extension term
    unless it has three spaces at degree 1."""
    tc = triple_complex(phi_a3_b3)
    one = CochainSpace(phi_a3_b3.source, 1, 4).zero()
    other = flat_cochain(triple_complex(Morphism.identity(phi_a3_b3.source)).spaces(1), {})
    for c in (one, other):
        for call in (tc.coboundary, tc.is_cocycle, lambda c: tc.cohomologous(c, c)):
            with pytest.raises(DimensionMismatch, match="this morphism's complex"):
                call(c)
    t = flat_cochain(tc.spaces(1), {})
    assert tc.is_cocycle(tc.coboundary(flat_cochain(tc.spaces(0), {})))
    with pytest.raises(DimensionMismatch, match="one space each"):
        triple(t, *t.parts[1:])
    with pytest.raises(DegreeMismatch):
        DeformedAlgebra(phi_a3_b3.source, 1, (t,))
    trivial = DeformedMorphism.trivial(phi_a3_b3, 0)
    for theta in (one, flat_cochain(tc.spaces(2), {})):
        with pytest.raises(DegreeMismatch, match="degree-1 triple"):
            extend_deformation(trivial, theta)
    assert extend_deformation(trivial, t) == DeformedMorphism.trivial(phi_a3_b3, 1)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_unvectorize_rejects_sparse_index_out_of_range(phi_a3_b3, m):
    """Flat coordinates on a triple's three spaces, through
    ``oracles.flat_cochain``: ``int_row`` refuses a sparse index outside them."""
    spaces = triple_complex(phi_a3_b3).spaces(m)
    size = flat_size(spaces)
    for index in (-1, size, 37 + size):
        with pytest.raises(DimensionMismatch):
            flat_cochain(spaces, {index: 7})
    last = flat_cochain(spaces, {size - 1: 7})
    assert list(vectorize(last)) == [0] * (size - 1) + [7]


@pytest.mark.parametrize("key", MORPHISM_FILES)
def test_triple_complex_keeps_its_spaces(key):
    tc = triple_complex(morphism(key))
    rng = random.Random(key)
    assert tc.spaces(0)[2] is None
    for m in range(4):
        spaces = tc.spaces(m)
        assert tc.spaces(m) is spaces
        for _ in range(3):
            t = triple(*(
                Cochain(s, {
                    (rng.choice(s.domain_keys), rng.randrange(s.target_dim)):
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(rng.randint(0, 6))
                }) if s else None
                for s in spaces
            ))
            back = flat_cochain(tc.spaces(m), vectorize(t))
            assert back == t
            c1, c2, _ = back.parts
            assert c1.space is spaces[0] and c2.space is spaces[1]


def test_morphism_cohomology_h1(phi_a1_b1):
    rep = morphism_cohomology(phi_a1_b1, 1)
    tc = triple_complex(phi_a1_b1)
    assert rep.dim_z == flat_size(tc.spaces(0)) - rank(tc.delta_matrix(0))
    assert rep.dim_h == rep.dim_z


@pytest.mark.parametrize("conjugated", [False, True], ids=["a3_b3", "a1_b2_i1~"])
def test_delta_matrix_shares_the_source_rows(conjugated, monkeypatch):
    """The rows of the source block are the source coboundary's own row
    objects; the target block's rows are its rows shifted past the source
    columns, already in lowest terms."""
    phi = conjugated_morphism() if conjugated else morphism("a3_b3")
    built = []

    def recorded(alg, m, floor=None):
        built.append(coboundary_matrix_self(alg, m, floor))
        return built[-1]

    monkeypatch.setattr(morphisms, "coboundary_matrix_self", recorded)
    tc = TripleComplex(phi)
    for m in (0, 1, 2):
        built.clear()
        out = tc.delta_matrix(m)
        d_src, d_tgt = built
        assert all(a is b for a, b in zip(out.ints, d_src.ints))
        off = tc.spaces(m)[0].dim
        tgt_rows = out.ints[d_src.rows : d_src.rows + d_tgt.rows]
        assert [{j - off: v for j, v in r.items()} for r in tgt_rows] == list(d_tgt.ints)
        assert out.dens[: d_src.rows + d_tgt.rows] == d_src.dens + d_tgt.dens
