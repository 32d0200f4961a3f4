import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import (
    _random_invertible,
    conjugate,
    conjugated_cases,
    degree1_cochain,
    full_catalog,
    random_symmetric,
    simple_a4,
    symmetric_form,
)
from oracles import (
    cochain_value,
    coeffs,
    column,
    dense_rows,
    flat_cochain,
    flat_size,
    mul_vector,
    oracle_algebra_obstruction,
    oracle_compose,
    oracle_inverse,
    oracle_morphism_obstruction,
    oracle_morphism_residual,
    oracle_nambu_residual,
    oracle_series,
    oracle_transform,
    representatives,
    unit,
    vectorize,
    written,
)

from nliecoh import jsonio
from nliecoh.algebra import NLieAlgebra, validate_algebra
from nliecoh.cli import main
from nliecoh.cochains import Cochain, CochainSpace
from nliecoh.corpus import automorphism
from nliecoh.deformations import (
    DeformedAlgebra,
    DeformedMorphism,
    FormalAutomorphism,
    apply_automorphism,
    compose_series,
    extend_deformation,
    extend_order,
    first_order_equivalence,
    formal_inverse,
    infinitesimal,
    linear_map_cochain,
    morphism_residual,
    nambu_residual,
    obstruction,
    validate_deformation,
)
from nliecoh.errors import (
    ArityMismatch,
    DimensionMismatch,
    NotValidated,
    ObstructionNotCocycle,
    OrderMismatch,
)
from nliecoh.linalg import Matrix
from nliecoh.morphisms import Morphism, triple, triple_complex, validate_morphism


def test_nambu_residual_base_order(corpus_algebras):
    for alg in corpus_algebras.values():
        da = DeformedAlgebra.trivial(alg, 1)
        assert nambu_residual(da, 0).is_zero()


def test_nambu_residual_cocycle_term(alg_a1):
    term = degree1_cochain(alg_a1, {(1, 2, 3): {2: 1}})
    da = DeformedAlgebra(alg_a1, 1, (term,))
    assert nambu_residual(da, 1).is_zero()


def test_nambu_residual_non_cocycle(alg_a1):
    term = degree1_cochain(alg_a1, {(1, 2, 3): {1: 1, 3: -1}})
    da = DeformedAlgebra(alg_a1, 1, (term,))
    assert not nambu_residual(da, 1).is_zero()


def test_nambu_residual_second_order_matches_direct_expansion(alg_a1):
    """The quadratic self-interaction term, re-derived longhand."""
    term = degree1_cochain(alg_a1, {(1, 2, 3): {2: 1}})
    da = DeformedAlgebra(alg_a1, 1, (term,))
    res = nambu_residual(da, 2)
    space = CochainSpace(alg_a1, 2, 4)
    for key in space.domain_keys:
        xs = [unit(4, i) for i in key[0]]
        ys = [unit(4, i) for i in key[1]]
        lhs = cochain_value(term, [xs], cochain_value(term, [ys[:-1]], ys[-1]))
        rhs = [0] * 4
        for i in range(3):
            inner = cochain_value(term, [xs], ys[i])
            args = ys[:i] + [inner] + ys[i + 1 :]
            out = cochain_value(term, [args[:-1]], args[-1])
            rhs = [a + b for a, b in zip(rhs, out)]
        expected = tuple(a - b for a, b in zip(lhs, rhs))
        got = tuple(coeffs(res).get((key, t), Fraction(0)) for t in range(4))
        assert got == expected


def test_validate_trivial_and_corpus(def_order1, def_order2, phi_a3_b3):
    assert validate_deformation(DeformedMorphism.trivial(phi_a3_b3, 3)).is_valid
    assert def_order1.report.is_valid
    assert def_order2.report.is_valid


def test_validate_flags_non_cocycle_first_order(alg_a1, phi_a1_b1):
    term = degree1_cochain(alg_a1, {(1, 2, 3): {1: 1, 3: -1}})
    dm = DeformedMorphism(
        DeformedAlgebra(alg_a1, 1, (term,)),
        DeformedAlgebra.trivial(phi_a1_b1.target, 1),
        (phi_a1_b1.matrix, Matrix.zero(4, 4)),
    )
    report = validate_deformation(dm)
    assert not report.is_valid
    assert {f.order for f in report.failures} == {1}
    assert all(f.part == "source" for f in report.failures)


def test_infinitesimal_corpus(def_order1):
    theta, is_cocycle = infinitesimal(def_order1)
    assert is_cocycle
    assert not theta.is_zero()


def test_infinitesimal_trivial(phi_a3_b3):
    theta, is_cocycle = infinitesimal(DeformedMorphism.trivial(phi_a3_b3, 1))
    assert is_cocycle and theta.is_zero()


def test_infinitesimal_requires_validation(alg_a1, phi_a1_b1):
    term = degree1_cochain(alg_a1, {(1, 2, 3): {1: 1, 3: -1}})
    dm = DeformedMorphism(
        DeformedAlgebra(alg_a1, 1, (term,)),
        DeformedAlgebra.trivial(phi_a1_b1.target, 1),
        (phi_a1_b1.matrix, Matrix.zero(4, 4)),
    )
    with pytest.raises(NotValidated):
        infinitesimal(dm)


def test_obstruction_zero_for_trivial(phi_a3_b3):
    dm = DeformedMorphism.trivial(phi_a3_b3, 1)
    assert obstruction(dm).is_zero()


def test_obstruction_vs_quadratic_residual(def_identity_pair, def_order1):
    """With a single first-order term the next-order defect is exactly the
    negated obstruction component."""
    for dm in (def_identity_pair, def_order1):
        ob = obstruction(dm)
        res = nambu_residual(dm.src_def, 2)
        assert coeffs(res) == coeffs(ob.parts[0].scale(-1))
        tc = triple_complex(dm.base_morphism)
        assert tc.is_cocycle(ob)


def _random_term(rng, alg):
    space = CochainSpace(alg, 1, alg.dim)
    return Cochain(
        space,
        {
            (key, t): rng.randint(-2, 2)
            for key in space.domain_keys
            for t in range(alg.dim)
            if rng.random() < 0.5
        },
    )


def _random_deformation(rng, src, tgt, order):
    """Random bracket terms (almost never cocycles) and dense map terms."""
    return DeformedMorphism(
        DeformedAlgebra(src, order, tuple(_random_term(rng, src) for _ in range(order))),
        DeformedAlgebra(tgt, order, tuple(_random_term(rng, tgt) for _ in range(order))),
        tuple(
            Matrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(src.dim)] for _ in range(tgt.dim)]
            )
            for _ in range(order + 1)
        ),
    )


def _catalog_pairs(rng, count):
    """Random catalog pairs of equal arity."""
    catalog = full_catalog()
    pairs = []
    while len(pairs) < count:
        src, tgt = rng.choice(catalog), rng.choice(catalog)
        if src.arity == tgt.arity:
            pairs.append((src, tgt))
    return pairs


def _oracle_obstruction(dm):
    return triple(
        oracle_algebra_obstruction(dm.src_def, dm.order),
        oracle_algebra_obstruction(dm.tgt_def, dm.order),
        oracle_morphism_obstruction(dm, dm.order),
    )


def _same_triple(a, b):
    return [coeffs(c) for c in a.parts] == [coeffs(c) for c in b.parts]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_residuals_and_obstruction_match_dense_oracle(order, monkeypatch):
    """The table-driven residuals and obstruction agree coefficient for
    coefficient with the dense loops on random, non-cocycle data."""
    import nliecoh.deformations as dfm

    monkeypatch.setattr(dfm, "_require_validated", lambda dm, through: None)
    rng = random.Random(900 + order)
    nonzero_parts = set()
    for src, tgt in _catalog_pairs(rng, 6):
        dm = _random_deformation(rng, src, tgt, order)
        for s in range(order + 2):
            for da in (dm.src_def, dm.tgt_def):
                assert coeffs(nambu_residual(da, s)) == coeffs(oracle_nambu_residual(da, s))
            assert coeffs(morphism_residual(dm, s)) == coeffs(oracle_morphism_residual(dm, s))
        ob = obstruction(dm)
        assert _same_triple(ob, _oracle_obstruction(dm))
        parts = ob.parts
        nonzero_parts.update(i for i, c in enumerate(parts) if not c.is_zero())
    assert nonzero_parts == {0, 1, 2}


def _rational_term(rng, alg, dens):
    space = CochainSpace(alg, 1, alg.dim)
    return Cochain(
        space,
        {
            (key, t): Fraction(rng.randint(-2, 2), rng.choice(dens))
            for key in space.domain_keys
            for t in range(alg.dim)
            if rng.random() < 0.5
        },
    )


def _lowest_terms(*cochains):
    """Each cochain is an integer row of nonzero entries over a positive
    denominator, in lowest terms."""
    return all(
        f.den > 0 and gcd(f.den, *f.row.values()) == 1
        and all(type(v) is int and v for v in f.row.values())
        for f in cochains
    )


@pytest.mark.parametrize("order", [1, 2])
def test_residuals_and_obstruction_match_dense_oracle_on_rational_families(order, monkeypatch):
    """Rational bracket terms on conjugated catalog algebras and rational map
    terms, so the source, target and map denominators differ: the residuals
    and the obstruction still agree with the dense loops, in lowest terms."""
    import nliecoh.deformations as dfm

    monkeypatch.setattr(dfm, "_require_validated", lambda dm, through: None)
    rng = random.Random(950 + order)
    catalog = [a for a in conjugated_cases() if a.dim <= 4]
    distinct = 0
    for _ in range(4):
        src = rng.choice(catalog)
        tgt = rng.choice([a for a in catalog if a.arity == src.arity])
        dm = DeformedMorphism(
            DeformedAlgebra(src, order, tuple(_rational_term(rng, src, range(1, 5)) for _ in range(order))),
            DeformedAlgebra(tgt, order, tuple(_rational_term(rng, tgt, range(1, 7)) for _ in range(order))),
            tuple(
                Matrix.from_rows(
                    [
                        [Fraction(rng.randint(-2, 2), rng.choice((1, 3, 7))) for _ in range(src.dim)]
                        for _ in range(tgt.dim)
                    ]
                )
                for _ in range(order + 1)
            ),
        )
        d_phi = lcm(*(d for m in dm.phi_terms for d in m.dens))
        distinct += len({dm.src_def.den, dm.tgt_def.den, d_phi}) == 3
        for s in range(order + 2):
            for da in (dm.src_def, dm.tgt_def):
                got = nambu_residual(da, s)
                assert coeffs(got) == coeffs(oracle_nambu_residual(da, s))
                assert _lowest_terms(got)
            got = morphism_residual(dm, s)
            assert coeffs(got) == coeffs(oracle_morphism_residual(dm, s))
            assert _lowest_terms(got)
            assert not got.is_zero()
        ob = obstruction(dm)
        assert _same_triple(ob, _oracle_obstruction(dm))
        assert _lowest_terms(*ob.parts)
    assert distinct


def _conjugate_family(dm, rng):
    """The family carried along random rational changes of basis P of the
    source and Q of the target: every bracket order mu becomes
    P^-1 mu(P x1, ..., P xn) (Q for the target) and every map term
    Q^-1 phi_i P.  Conjugation respects every order-by-order equation."""

    def carry(da, p, p_inv):
        base = conjugate(da.base, p, p_inv, da.base.name + "~")
        space = CochainSpace(base, 1, base.dim)

        def value(term, key):
            cols = [column(p, i) for i in key]
            return mul_vector(p_inv, cochain_value(term, [cols[:-1]], cols[-1]))

        terms = tuple(
            Cochain(
                space,
                {((key,), t): x for key in base.bracket_keys() for t, x in enumerate(value(term, key))},
            )
            for term in da.terms
        )
        return DeformedAlgebra(base, da.order, terms)

    p, p_inv = _random_invertible(rng, dm.src_def.base.dim)
    q, q_inv = _random_invertible(rng, dm.tgt_def.base.dim)
    return DeformedMorphism(
        carry(dm.src_def, p, p_inv),
        carry(dm.tgt_def, q, q_inv),
        tuple(q_inv.mul(m).mul(p) for m in dm.phi_terms),
        dm.name,
    )


def _rational_series(rng, dim, order=2):
    return FormalAutomorphism(
        dim,
        order,
        tuple(
            Matrix.from_rows(
                [[Fraction(rng.randint(-1, 1), rng.choice((1, 2, 5))) for _ in range(dim)] for _ in range(dim)]
            )
            for _ in range(order)
        ),
    )


def test_apply_automorphism_on_rational_family(def_order2):
    """A rational order-2 family transformed by a rational automorphism pair
    stays valid, has the oracle's obstruction, comes back under the inverse
    pair, and holds its new terms as integer rows in lowest terms."""
    rng = random.Random(60)
    dm = _conjugate_family(def_order2, rng)
    d_phi = lcm(*(d for m in dm.phi_terms for d in m.dens))
    assert (dm.src_def.den, dm.tgt_def.den, d_phi) == (10, 19, 38)
    assert dm.report.is_valid
    psi_n, psi_t = _rational_series(rng, 4), _rational_series(rng, 4)
    out = apply_automorphism(dm, psi_n, psi_t)
    assert out.report.is_valid
    assert _same_triple(obstruction(out), _oracle_obstruction(out))
    new_terms = out.src_def.terms + out.tgt_def.terms
    assert _lowest_terms(*new_terms)
    assert any(f.den > 1 for f in new_terms)
    back = apply_automorphism(out, formal_inverse(psi_n, 2), formal_inverse(psi_t, 2))
    assert back.src_def.terms == dm.src_def.terms
    assert back.tgt_def.terms == dm.tgt_def.terms
    assert back.phi_terms == dm.phi_terms


def test_library_rows_are_in_lowest_terms(def_order1, def_order2):
    """Every cochain and triple the library returns is an integer row of
    nonzero ints over a positive denominator, in lowest terms: residuals,
    obstructions, infinitesimals, coboundaries, extension witnesses,
    cohomologous-class witnesses, terms loaded from JSON and conjugated
    terms, on the corpus families and on a rational conjugate of them."""
    from nliecoh import jsonio

    rng = random.Random(61)
    psi_n, psi_t = _rational_series(rng, 4, order=1), _rational_series(rng, 4, order=1)
    rational = _conjugate_family(def_order2, rng)
    loaded = jsonio.deformation_from_json(written(jsonio.deformation_to_json(rational)))
    seen = []
    for dm in (def_order1, def_order2, rational, loaded, loaded.truncated(1)):
        tc = triple_complex(dm.base_morphism)
        seen += dm.src_def.terms + dm.tgt_def.terms
        for s in range(dm.order + 2):
            seen += [nambu_residual(dm.src_def, s), nambu_residual(dm.tgt_def, s)]
            seen.append(morphism_residual(dm, s))
        theta, _ = infinitesimal(dm)
        seen += [theta, tc.coboundary(theta), obstruction(dm), extend_order(dm)]
        out = apply_automorphism(dm.truncated(1), psi_n, psi_t)
        seen += out.src_def.terms + out.tgt_def.terms
        seen.append(tc.cohomologous(infinitesimal(out)[0], theta))
    seen = [x for x in seen if x is not None]
    triples = [x for x in seen if len(x.spaces) == 3]
    assert len(triples) >= 20 and any(x.den > 1 for x in triples)
    assert any(x.den > 1 and len(x.spaces) == 1 for x in seen)
    for x in seen + [c for t in triples for c in t.parts if c is not None]:
        assert x.den > 0 and gcd(x.den, *x.row.values()) == 1, x
        assert all(type(v) is int and v for v in x.row.values()), x


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(_rationals, min_size=16, max_size=16), _rationals, _rationals)
def test_scalings_of_one_cochain_are_equal_and_hash_equal(flat, p, q):
    """A rational cochain scaled by p then q, by p*q, and coerced from its
    scaled coefficients is one row over one denominator."""
    from nliecoh.corpus import algebra

    space = CochainSpace(algebra("a1"), 1, 4)
    c = flat_cochain((space,), flat)
    one, two = c.scale(p).scale(q), c.scale(p * q)
    three = Cochain(space, {k: v * p * q for k, v in coeffs(c).items()})
    assert one == two == three and hash(one) == hash(two) == hash(three)
    assert (one.row, one.den) == (two.row, two.den) == (three.row, three.den)
    assert one.den > 0 and gcd(one.den, *one.row.values()) == 1
    assert one.is_zero() == (not any(flat) or p * q == 0)


def _dense_rows(m):
    return [list(r) for r in dense_rows(m)]


def _matches_oracle_transform(dm, psi_n, psi_t):
    out = apply_automorphism(dm, psi_n, psi_t)
    src, tgt, maps = oracle_transform(dm, psi_n, psi_t)
    assert [coeffs(t) for t in out.src_def.terms] == src
    assert [coeffs(t) for t in out.tgt_def.terms] == tgt
    assert [_dense_rows(m) for m in out.phi_terms] == maps
    return any(src) and any(tgt) and any(any(r) for m in maps[1:] for r in m)


def test_transform_matches_oracle_on_corpus(def_order1, def_order2):
    """Both corpus deformations under the bundled pair, term for term."""
    psi_n, psi_t = automorphism("a3_scaling"), automorphism("b3_identity")
    for dm in (def_order1, def_order2):
        _matches_oracle_transform(dm, psi_n, psi_t)


def test_transform_matches_oracle_on_random_rational_pairs(def_order2):
    """The order-2 corpus deformation under random rational pairs of orders
    1-3, so that a pair's order differs from the deformation's."""
    rng = random.Random(61)
    for order in (2, 2, 1, 3):
        assert _matches_oracle_transform(
            def_order2, _rational_series(rng, 4, order), _rational_series(rng, 4, order)
        )


def test_transform_matches_oracle_on_rational_family(def_order2):
    """The rational conjugated family, with distinct source, target and map
    denominators, under a rational pair."""
    rng = random.Random(60)
    dm = _conjugate_family(def_order2, rng)
    assert _matches_oracle_transform(dm, _rational_series(rng, 4), _rational_series(rng, 4))


def test_inverse_and_composition_match_oracle():
    """formal_inverse and compose_series at k = 3, for series of order 3 and
    of order 1 read past their end."""
    rng = random.Random(62)
    for order in (3, 3, 1):
        a, b = _rational_series(rng, 4, order), _rational_series(rng, 4, order)
        got = formal_inverse(a, 3)
        assert [_dense_rows(got.term(i)) for i in range(4)] == oracle_inverse(a, 3)
        got = compose_series(a, b, 3)
        assert [_dense_rows(got.term(i)) for i in range(1, 4)] == oracle_compose(a, b, 3)[1:]
        assert oracle_compose(a, _inverse_series(a), 3) == oracle_series(FormalAutomorphism.identity(4), 3)


def _inverse_series(a):
    return FormalAutomorphism(4, 3, tuple(Matrix.from_rows(m) for m in oracle_inverse(a, 3)[1:]))


def test_obstruction_matches_dense_oracle_on_valid_families(
    def_order1, def_order2, def_identity_pair
):
    """Validated families, and dense equivalent ones obtained by random
    automorphism pairs, give the oracle's obstruction."""
    rng = random.Random(23)
    cases = [def_order1, def_identity_pair] + [def_order2.truncated(k) for k in range(3)]
    for dm in list(cases):
        d, dp = dm.src_def.base.dim, dm.tgt_def.base.dim
        psi_n, psi_t = (
            FormalAutomorphism(
                dim,
                dm.order,
                tuple(
                    Matrix.from_rows([[rng.randint(-1, 1) for _ in range(dim)] for _ in range(dim)])
                    for _ in range(dm.order)
                ),
            )
            for dim in (d, dp)
        )
        cases.append(apply_automorphism(dm, psi_n, psi_t))
    for dm in cases:
        assert dm.report.is_valid
        assert _same_triple(obstruction(dm), _oracle_obstruction(dm))


def test_obstruction_identity_for_arbitrary_terms(alg_a1):
    """The defect/obstruction relation is an algebraic identity in the
    first-order term, so it must hold for a random non-cocycle too, where
    both sides are nonzero."""
    rng = random.Random(77)
    space = CochainSpace(alg_a1, 1, 4)
    term = Cochain(
        space,
        {
            (key, t): rng.randint(-2, 2)
            for key in space.domain_keys
            for t in range(4)
        },
    )
    da = DeformedAlgebra(alg_a1, 1, (term,))
    res = nambu_residual(da, 2)
    ob = oracle_algebra_obstruction(da, 1)
    assert not ob.is_zero()
    assert coeffs(res) == coeffs(ob.scale(-1))


def test_obstruction_morphism_part_is_next_order_residual():
    """The map part of the obstruction is the order-(N+1) defect of the map
    equation itself, not negated, for arbitrary terms at every order."""
    rng = random.Random(78)
    for src, tgt in _catalog_pairs(rng, 6):
        for order in (1, 2, 3):
            dm = _random_deformation(rng, src, tgt, order)
            ob = oracle_morphism_obstruction(dm, order)
            assert not ob.is_zero()
            assert coeffs(morphism_residual(dm, order + 1)) == coeffs(ob)


def test_arity_mismatch_rejected(phi_a3_b3):
    ternary = phi_a3_b3.source
    binary = NLieAlgebra.abelian("ab2", 2, ternary.dim)
    with pytest.raises(ArityMismatch):
        DeformedMorphism(
            DeformedAlgebra.trivial(ternary, 1),
            DeformedAlgebra.trivial(binary, 1),
            (Matrix.zero(binary.dim, ternary.dim),) * 2,
        )


def test_obstruction_equals_coboundary_of_discarded_terms(def_order2):
    """Truncating a valid order-2 family: its order-2 triple maps to the
    obstruction of the truncation under the differential."""
    trunc = def_order2.truncated(1)
    ob = obstruction(trunc)
    tc = triple_complex(def_order2.base_morphism)
    theta2 = triple(
        def_order2.src_def.terms[1],
        def_order2.tgt_def.terms[1],
        linear_map_cochain(
            CochainSpace(def_order2.src_def.base, 0, 4), def_order2.phi_terms[2]
        ),
    )
    assert vectorize(tc.coboundary(theta2)) == vectorize(ob)
    assert tc.is_cocycle(ob)


def test_extend_order_roundtrip(def_order2):
    trunc = def_order2.truncated(1)
    witness = extend_order(trunc)
    assert witness is not None
    extended = extend_deformation(trunc, witness)
    assert validate_deformation(extended).is_valid
    assert extended.order == 2


def test_extend_trivial(phi_a3_b3):
    dm = DeformedMorphism.trivial(phi_a3_b3, 1)
    witness = extend_order(dm)
    assert witness is not None
    assert validate_deformation(extend_deformation(dm, witness)).is_valid


def test_extension_blocked_by_nonzero_class(def_order1, monkeypatch):
    """When the obstruction represents a nonzero cohomology class, no
    correction triple exists and the solver reports absence."""
    import nliecoh.deformations as dfm

    tc = triple_complex(def_order1.base_morphism)
    rep = tc.cohomology(3)
    assert rep.dim_h > 0, "corpus morphism complex is not rigid at this degree"
    blocked = flat_cochain(tc.spaces(2), representatives(rep)[0])
    assert tc.is_cocycle(blocked)
    monkeypatch.setattr(dfm, "obstruction", lambda dm: blocked)
    assert dfm.extend_order(def_order1) is None


def test_obstruction_cocycle_guard(def_order1, monkeypatch):
    import nliecoh.deformations as dfm

    tc = triple_complex(def_order1.base_morphism)
    rogue = flat_cochain(tc.spaces(2), [1] * flat_size(tc.spaces(2)))
    assert not tc.is_cocycle(rogue)
    monkeypatch.setattr(dfm, "obstruction", lambda dm: rogue)
    with pytest.raises(ObstructionNotCocycle):
        dfm.extend_order(def_order1)


def test_formal_inverse_identity_and_series():
    eye = FormalAutomorphism.identity(3, 2)
    inv = formal_inverse(eye, 2)
    assert all(m.is_zero() for m in inv.terms)
    a = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    psi = FormalAutomorphism.from_first_order(a)
    inv = formal_inverse(psi, 3)
    assert inv.term(1) == a.scale(-1)
    assert inv.term(2) == a.mul(a)
    assert inv.term(3) == a.mul(a).mul(a).scale(-1)


def test_series_term_below_order_0_is_refused():
    """A negative order has no term; it is not read from the end of the series."""
    a = Matrix.from_rows([[0, 1], [0, 0]])
    psi = FormalAutomorphism(2, 3, (a, a.scale(2), a.scale(3)))
    assert psi.term(0) == Matrix.identity(2) and psi.term(3) == a.scale(3)
    assert psi.term(4).is_zero()
    for i in (-1, -2, -4):
        with pytest.raises(OrderMismatch, match="order 0"):
            psi.term(i)


def test_formal_inverse_random_roundtrip():
    rng = random.Random(31)
    for _ in range(5):
        terms = tuple(
            Matrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            )
            for _ in range(3)
        )
        psi = FormalAutomorphism(4, 3, terms)
        chi = formal_inverse(psi, 3)
        assert all(m.is_zero() for m in compose_series(psi, chi, 3).terms)
        assert all(m.is_zero() for m in compose_series(chi, psi, 3).terms)


def test_apply_identity_automorphism(def_order1):
    out = apply_automorphism(
        def_order1, FormalAutomorphism.identity(4, 1), FormalAutomorphism.identity(4, 1)
    )
    assert out.src_def.terms == def_order1.src_def.terms
    assert out.tgt_def.terms == def_order1.tgt_def.terms
    assert out.phi_terms == def_order1.phi_terms


def test_apply_automorphism_corpus_values(def_order1):
    """Exact transformed values for the bundled scaling automorphism."""
    psi_n = automorphism("a3_scaling")
    psi_t = automorphism("b3_identity")
    out = apply_automorphism(def_order1, psi_n, psi_t)
    assert validate_deformation(out).is_valid
    # the degree-1 term of the scaling series is a derivation, so the
    # source bracket family is untouched
    assert coeffs(out.src_def.terms[0]) == coeffs(def_order1.src_def.terms[0])
    # map series: images of the third and fourth generators
    assert out.phi_terms[0] == def_order1.phi_terms[0]
    assert column(out.phi_terms[1], 2) == (0,) * 4
    assert column(out.phi_terms[1], 3) == (0, 0, -1, 0)


def test_transform_roundtrip(def_order2):
    rng = random.Random(41)
    p = Matrix.from_rows([[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)])
    q = Matrix.from_rows([[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)])
    psi_n = FormalAutomorphism(4, 2, (p, Matrix.zero(4, 4)))
    psi_t = FormalAutomorphism(4, 2, (q, q.mul(q)))
    inv_n = formal_inverse(psi_n, 2)
    inv_t = formal_inverse(psi_t, 2)
    once = apply_automorphism(def_order2, psi_n, psi_t)
    back = apply_automorphism(once, inv_n, inv_t)
    assert back.src_def.terms == def_order2.src_def.terms
    assert back.tgt_def.terms == def_order2.tgt_def.terms
    assert back.phi_terms == def_order2.phi_terms


def test_equivalence_invariance_identity(def_order1, def_order2):
    """Infinitesimals before and after a transform differ by exactly the
    coboundary of the degree-1 automorphism pair."""
    cases = [
        (def_order1, automorphism("a3_scaling"), automorphism("b3_identity")),
        (
            def_order2.truncated(1),
            FormalAutomorphism.from_first_order(
                Matrix.from_rows(
                    [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
                )
            ),
            FormalAutomorphism.from_first_order(
                Matrix.from_rows(
                    [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
                )
            ),
        ),
    ]
    for dm, psi_n, psi_t in cases:
        out = apply_automorphism(dm, psi_n, psi_t)
        theta_before, _ = infinitesimal(dm)
        theta_after, _ = infinitesimal(out)
        phi = dm.base_morphism
        tc = triple_complex(phi)
        alpha = triple(
            linear_map_cochain(CochainSpace(phi.source, 0, 4), psi_n.term(1)),
            linear_map_cochain(CochainSpace(phi.target, 0, 4), psi_t.term(1)),
            None,
        )
        lhs = tuple(x - y for x, y in zip(vectorize(theta_before), vectorize(theta_after)))
        rhs = vectorize(tc.coboundary(alpha))
        assert lhs == rhs


def test_first_order_equivalence_search(def_order1):
    psi_n = automorphism("a3_scaling")
    psi_t = automorphism("b3_identity")
    out = apply_automorphism(def_order1, psi_n, psi_t)
    pair = first_order_equivalence(def_order1, out)
    assert pair is not None
    found_n, found_t = pair
    theta_a, _ = infinitesimal(def_order1)
    theta_b, _ = infinitesimal(out)
    phi = def_order1.base_morphism
    tc = triple_complex(phi)
    alpha = triple(
        linear_map_cochain(CochainSpace(phi.source, 0, 4), found_n.term(1)),
        linear_map_cochain(CochainSpace(phi.target, 0, 4), found_t.term(1)),
        None,
    )
    diff = tuple(x - y for x, y in zip(vectorize(theta_a), vectorize(theta_b)))
    assert vectorize(tc.coboundary(alpha)) == diff


def test_order_mismatch_guard(def_order1):
    with pytest.raises(OrderMismatch):
        DeformedMorphism(
            def_order1.src_def,
            DeformedAlgebra.trivial(def_order1.tgt_def.base, 2),
            def_order1.phi_terms,
        )


def test_a4_is_rigid_through_the_deformation_commands():
    """The identity of the simple A_4 has H^1, H^2, H^3 = 6, 0, 0 in its
    triple complex, with dim Z^2 = 26.  So every order-1 family built from a
    random rational cocycle validates, extends to orders 2 and 3 with every
    extension valid, and is equivalent to the trivial family."""
    phi = Morphism.identity(simple_a4())
    tc = triple_complex(phi)
    assert [tc.cohomology(r).dim_h for r in (1, 2, 3)] == [6, 0, 0]
    z = tc.cohomology(2).cocycles
    assert z.rows == 26
    rng = random.Random(4)
    for _ in range(5):
        flat: dict[int, Fraction] = {}
        for row, den in zip(z.ints, z.dens):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3) * den)
            for j, v in row.items():
                flat[j] = flat.get(j, 0) + c * v
        theta = flat_cochain(tc.spaces(1), flat)
        assert tc.is_cocycle(theta)
        dm = extend_deformation(DeformedMorphism.trivial(phi, 0), theta)
        assert dm.order == 1 and dm.report.is_valid
        assert first_order_equivalence(dm, DeformedMorphism.trivial(phi, 1)) is not None
        for order in (2, 3):
            witness = extend_order(dm)
            assert witness is not None
            dm = extend_deformation(dm, witness)
            assert dm.order == order and validate_deformation(dm).is_valid


def test_an_obstructed_family_is_reported_through_the_cli(phi_a3_b3, tmp_path, capsys):
    """On a3_b3 the H^2 representatives at flat entries 0 and 9 each give an
    order-1 family that extends, and their sum one that does not: its
    obstruction is a cocycle outside the coboundaries.  ``deform extend``
    exits 1 with no witness, ``deform obstruction`` reports the cocycle,
    and the family has no first-order equivalence to the trivial one."""
    tc = triple_complex(phi_a3_b3)
    classes = tc.cohomology(2).classes
    assert (classes.ints[0], classes.ints[3]) == ({0: 1}, {9: 1})

    def family(flat):
        return extend_deformation(DeformedMorphism.trivial(phi_a3_b3, 0), flat_cochain(tc.spaces(1), flat))

    assert extend_order(family({0: 1})) is not None and extend_order(family({9: 1})) is not None
    dm = family({0: 1, 9: 1})
    assert dm.report.is_valid and extend_order(dm) is None
    assert first_order_equivalence(DeformedMorphism.trivial(phi_a3_b3, 1), dm) is None
    path = tmp_path / "obstructed.json"
    path.write_text(jsonio.dump_json(jsonio.deformation_to_json(dm)))
    assert main(["--output", "json", "deform", "extend", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["extendable"] is False and report["status"] == 1
    assert "the obstruction class is nonzero" in report["verdict"]["note"]
    assert report["artifacts"] == {"witness": None}
    assert main(["--output", "json", "deform", "obstruction", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["artifacts"]["cocycle"] is True


def test_symmetric_forms_deform_without_obstruction():
    """mu_B + t mu_B' is a valid bracket for every t when B and B' are
    symmetric, so the identity's order-1 family with both terms mu_B' and
    phi_1 = 0 validates, its obstruction is exactly zero, and it extends."""
    rng = random.Random(1320)
    for _ in range(3):
        alg = symmetric_form(3, random_symmetric(rng, 4, 4))
        shift = symmetric_form(3, random_symmetric(rng, 4, rng.randint(0, 4)))
        term = Cochain(
            CochainSpace(alg, 1, 4),
            {((key,), t): c for key, value in shift.structure for t, c in enumerate(value)},
        )
        da = DeformedAlgebra(alg, 1, (term,))
        dm = DeformedMorphism(da, da, (Matrix.identity(4), Matrix.zero(4, 4)))
        assert dm.report.is_valid
        assert obstruction(dm).is_zero()
        assert extend_order(dm) is not None


def test_formal_automorphism_checks_its_bounds():
    """A formal automorphism has dimension at least 1 and a nonnegative
    order, checked before its terms are counted."""
    for dim in (-1, 0):
        with pytest.raises(DimensionMismatch, match="at least 1"):
            FormalAutomorphism(dim, 0, ())
    with pytest.raises(DimensionMismatch, match="at least 1"):
        FormalAutomorphism.identity(0)
    with pytest.raises(OrderMismatch, match="nonnegative"):
        FormalAutomorphism(2, -1, ())
    with pytest.raises(OrderMismatch, match="nonnegative"):
        FormalAutomorphism.identity(2, -1)
    assert FormalAutomorphism.identity(1).series(1) == [Matrix.identity(1), Matrix.zero(1, 1)]


def test_one_failure_record_ties_the_three_validators():
    """Validation is the order-0 check of a deformation: over the trivial
    order-1 family, the order-0 source and target failures are the
    algebra's failures with their part renamed, and the order-0 morphism
    failures are the morphism's, record for record."""
    inputs = Path(__file__).parent / "golden" / "inputs"
    bad = jsonio.load_algebra(inputs / "alg_a1_bad.json")
    failures = validate_algebra(bad).failures
    report = validate_deformation(DeformedMorphism.trivial(Morphism.identity(bad), 1))
    assert len(failures) == 6
    for part in ("source", "target"):
        got = [f for f in report.failures if f.order == 0 and f.part == part]
        assert got == [replace(f, part=part) for f in failures]
    phi = jsonio.load_morphism(inputs / "mor_a1_b1_bad.json")
    failures = validate_morphism(phi).failures
    report = validate_deformation(DeformedMorphism.trivial(phi, 1))
    assert len(failures) == 1 and all(f.part == "morphism" for f in failures)
    assert [f for f in report.failures if f.order == 0] == list(failures)
