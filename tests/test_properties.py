"""Randomized structural properties over a deterministic case catalog:
more than one hundred valid algebras across arities 2 and 3, dimensions
up to 4, built from the corpus, classical examples, and dense seeded
change-of-basis conjugates.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from catalog import base_algebras, full_catalog
from oracles import FundamentalObject, ad_action, delta_value, fundamental_bracket, unit

from nliecoh.algebra import validate_algebra
from nliecoh.cochains import Cochain, CochainSpace, coboundary_matrix_module, coboundary_matrix_self
from nliecoh.corpus import morphism
from nliecoh.linalg import kernel_basis, rank
from nliecoh.morphisms import Morphism, triple_complex
from nliecoh.tables import sort_sign

CATALOG = full_catalog()
IDS = [a.name for a in CATALOG]
HEAVY = base_algebras() + CATALOG[13:23]


@pytest.mark.parametrize("alg", CATALOG, ids=IDS)
def test_dd_zero_and_rank_nullity(alg):
    d1 = coboundary_matrix_self(alg, 0)
    d2 = coboundary_matrix_self(alg, 1)
    assert d2.mul(d1).is_zero()
    for m in (d1, d2):
        assert rank(m) + kernel_basis(m).rows == m.cols


@pytest.mark.parametrize("alg", HEAVY, ids=[a.name for a in HEAVY])
def test_dd_zero_next_degree(alg):
    d2 = coboundary_matrix_self(alg, 1)
    d3 = coboundary_matrix_self(alg, 2)
    assert d3.mul(d2).is_zero()
    assert rank(d3) + kernel_basis(d3).rows == d3.cols


@pytest.mark.parametrize("alg", CATALOG, ids=IDS)
def test_block_action_commutator_identity(alg):
    wedges = [
        FundamentalObject.from_basis(alg.dim, w)
        for w in combinations(range(alg.dim), alg.arity - 1)
    ]
    for x in wedges:
        for y in wedges:
            xy = fundamental_bracket(alg, x, y)
            for j in range(alg.dim):
                z = unit(alg.dim, j)
                lhs = ad_action(alg, xy, z)
                rhs1 = ad_action(alg, x, ad_action(alg, y, z))
                rhs2 = ad_action(alg, y, ad_action(alg, x, z))
                assert lhs == tuple(a - b for a, b in zip(rhs1, rhs2))


@pytest.mark.parametrize("alg", CATALOG, ids=IDS)
def test_left_leibniz_on_blocks(alg):
    wedges = [
        FundamentalObject.from_basis(alg.dim, w)
        for w in combinations(range(alg.dim), alg.arity - 1)
    ]
    for x in wedges:
        for y in wedges:
            for z in wedges:
                lhs = fundamental_bracket(alg, x, fundamental_bracket(alg, y, z))
                r1 = fundamental_bracket(alg, fundamental_bracket(alg, x, y), z)
                r2 = fundamental_bracket(alg, y, fundamental_bracket(alg, x, z))
                keys = set(r1.decomposition()) | set(r2.decomposition())
                total = {
                    k: r1.decomposition().get(k, Fraction(0))
                    + r2.decomposition().get(k, Fraction(0))
                    for k in keys
                }
                assert lhs.decomposition() == {k: c for k, c in total.items() if c}


@pytest.mark.parametrize("alg", CATALOG, ids=IDS)
def test_output_skewness_random_cochain(alg):
    rng = random.Random(alg.name)
    n, d = alg.arity, alg.dim
    space = CochainSpace(alg, 2, d)
    f = Cochain(
        space,
        {
            (key, t): rng.randint(-2, 2)
            for key in space.domain_keys
            for t in range(d)
        },
    )
    blocks = [
        [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n - 1)]
        for _ in range(2)
    ]
    vs = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n)]
    delta = coboundary_matrix_self(alg, 2)
    base = delta_value(delta, f, blocks + [vs[:-1]], vs[-1])
    perm = list(range(n))
    rng.shuffle(perm)
    sign, _ = sort_sign(tuple(perm))
    arranged = [vs[i] for i in perm]
    got = delta_value(delta, f, blocks + [arranged[:-1]], arranged[-1])
    assert got == tuple(sign * x for x in base)


TRIPLE_CASES = []
for key in ("a1_b1", "a3_b3", "a1_b2_i1", "a1_b2_i2", "a3_b3_i2"):
    TRIPLE_CASES.append((key, morphism(key)))
for alg in CATALOG[13:19]:
    TRIPLE_CASES.append((f"id[{alg.name}]", Morphism.identity(alg)))
for a, b in zip(CATALOG[19:24], CATALOG[24:29]):
    if a.arity == b.arity:
        TRIPLE_CASES.append((f"0[{a.name}->{b.name}]", Morphism.zero(a, b)))


@pytest.mark.parametrize("label,phi", TRIPLE_CASES, ids=[c[0] for c in TRIPLE_CASES])
def test_module_dd_zero(label, phi):
    mats = [coboundary_matrix_module(phi, m) for m in (0, 1)]
    assert mats[1].mul(mats[0]).is_zero()
    for mat in mats:
        assert rank(mat) + kernel_basis(mat).rows == mat.cols


@pytest.mark.parametrize("label,phi", TRIPLE_CASES, ids=[c[0] for c in TRIPLE_CASES])
def test_triple_dd_zero(label, phi):
    tc = triple_complex(phi)
    for m in (0, 1):
        out = tc.delta_matrix(m + 1).mul(tc.delta_matrix(m))
        assert out.is_zero()
        mat = tc.delta_matrix(m)
        assert rank(mat) + kernel_basis(mat).rows == mat.cols


def test_catalog_is_large_and_valid():
    assert len(CATALOG) >= 100
    arities = {a.arity for a in CATALOG}
    assert arities == {2, 3}
    assert all(validate_algebra(a).is_valid for a in CATALOG[:10])
