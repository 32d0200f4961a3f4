"""Release acceptance suite.

One test (or small test group) per shipping criterion, each printing a
PASS/FAIL line.  All assertions are exact; no tolerances anywhere.

Where a reference value transcribed alongside the corpus tables is
contradicted by the structures it accompanies, the expected values below
are the computed ground truth, cross-checked by the independent
brute-force differential in oracles.py; each such deviation is printed
loudly and documented in the project notes.  Claims that cannot hold are
kept as strict expected-failure tests so the defect stays visible without
masking it.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from catalog import full_catalog, identity_pair_deformation, listed_cocycles
from oracles import (
    FundamentalObject,
    RowSpace,
    ad_action,
    as_flat,
    coeffs,
    column,
    delta_value,
    dense_rows,
    fundamental_bracket,
    mul_vector,
    oracle_matrix,
    unit,
    vectorize,
)

from nliecoh.algebra import validate_algebra
from nliecoh.cochains import (
    Cochain,
    CochainSpace,
    coboundary_matrix_module,
    coboundary_matrix_self,
    self_cohomology,
)
from nliecoh.corpus import algebra, automorphism, deformation, morphism
from nliecoh.deformations import (
    apply_automorphism,
    extend_deformation,
    extend_order,
    infinitesimal,
    linear_map_cochain,
    obstruction,
    validate_deformation,
)
from nliecoh.linalg import kernel_basis, rank
from nliecoh.morphisms import triple, triple_complex

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "nliecoh" / "data"
GOLDEN = ROOT / "tests" / "golden"

# Computed second-cohomology dimensions (ground truth, oracle-confirmed).
# The transcribed reference values are 3 for "a1", 2 for "b1", and 3 for
# "b2"; those cannot hold -- in particular "b2" is isomorphic to "a3" by a
# basis transposition, forcing equal dimensions. See the project notes.
COMPUTED_H2 = {"a1": 4, "b1": 1, "b2": 9, "a3": 9, "b3": 0}
CLAIMED_H2 = {"a1": 3, "b1": 2, "b2": 3, "a3": 9, "b3": 0}

# Instances whose first-cohomology reports are frozen as golden files; the
# noted claim (16, parameter-dependent) is recorded, matching not required.
H1_INSTANCES = ("a1_b2_i1", "a1_b2_i2", "a3_b3", "a3_b3_i2")
H1_NOTED_CLAIM = 16


def record(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "nliecoh", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )


# -- criterion 1: validation golden set ---------------------------------------


def test_criterion_1_validation_golden_set():
    for key in ("a1", "b1", "b2", "a3", "b3"):
        report = validate_algebra(algebra(key))
        assert report.is_valid, f"{key} has residuals {report.failures[:2]}"
    record("criterion 1 (five bundled algebras validate)", True)


# -- criterion 2: H^2 dimensions with discrepancy protocol ---------------------


def test_criterion_2_h2_dimensions():
    t0 = time.time()
    deviations = []
    for key, expected in COMPUTED_H2.items():
        alg = algebra(key)
        # discrepancy protocol: the brute-force differential must reproduce
        # the assembled matrices before a computed value is trusted
        for p in (0, 1):
            assert coboundary_matrix_self(alg, p) == oracle_matrix(alg, p), (key, p)
        rep = self_cohomology(alg, 2)
        assert rep.dim_h == expected, f"{key}: computed {rep.dim_h} != {expected}"
        if CLAIMED_H2[key] != expected:
            deviations.append(f"{key}: reference value {CLAIMED_H2[key]}, computed {expected}")
    detail = (
        "documented deviations: " + "; ".join(deviations)
        if deviations
        else "all values match the quoted claims"
    )
    record("criterion 2 (H^2 dimensions, oracle-confirmed)", True, detail)
    assert time.time() - t0 < 10.0


# -- criterion 3: listed representative cocycles --------------------------------

# (algebra key, cocycle position): the two entries below came labelled as
# cocycles but fail the coboundary identity; verified by the assembled
# matrices, by the brute-force oracle, and by hand.
FALSE_COCYCLE_CLAIMS = {("a1", 0), ("a1", 2)}

COCYCLE_CASES = [
    (key, i) for key in ("a1", "b1", "b2", "a3") for i, _ in enumerate(listed_cocycles(key))
]
TRUE_CASES = [c for c in COCYCLE_CASES if c not in FALSE_COCYCLE_CLAIMS]
FALSE_CASES = [c for c in COCYCLE_CASES if c in FALSE_COCYCLE_CLAIMS]


@pytest.mark.parametrize("key,i", TRUE_CASES, ids=[f"{k}[{i}]" for k, i in TRUE_CASES])
def test_criterion_3_listed_cocycles_hold(key, i):
    alg = algebra(key)
    psi = listed_cocycles(key)[i]
    d2 = coboundary_matrix_self(alg, 1)
    assert all(x == 0 for x in mul_vector(d2, as_flat(psi)))
    assert all(x == 0 for x in mul_vector(oracle_matrix(alg, 1), as_flat(psi)))


@pytest.mark.parametrize("key,i", FALSE_CASES, ids=[f"{k}[{i}]" for k, i in FALSE_CASES])
@pytest.mark.xfail(
    strict=True,
    reason="transcribed with a cocycle label, but its coboundary is nonzero "
    "(hand-checked and oracle-confirmed); see the project notes",
)
def test_criterion_3_claimed_cocycles_that_fail(key, i):
    alg = algebra(key)
    psi = listed_cocycles(key)[i]
    d2 = coboundary_matrix_self(alg, 1)
    assert all(x == 0 for x in mul_vector(d2, as_flat(psi)))


def _independent_mod_coboundaries(key: str) -> int:
    alg = algebra(key)
    d1 = coboundary_matrix_self(alg, 0)
    space = RowSpace(column(d1, j) for j in range(d1.cols))
    added = 0
    for psi in listed_cocycles(key):
        if space.add(as_flat(psi)):
            added += 1
    return added


@pytest.mark.parametrize("key,expected", [("a1", 3), ("b2", 3), ("a3", 9)])
def test_criterion_3_families_independent(key, expected):
    assert _independent_mod_coboundaries(key) == expected


@pytest.mark.xfail(
    strict=True,
    reason="the two listed representatives for this algebra are cohomologous; "
    "only one class survives modulo coboundaries (H^2 here is 1-dimensional)",
)
def test_criterion_3_b1_family_independence_claim():
    assert _independent_mod_coboundaries("b1") == 2


def test_criterion_3_summary():
    record(
        "criterion 3 (listed cocycles)",
        True,
        f"{len(TRUE_CASES)}/{len(COCYCLE_CASES)} listed cocycles verified; "
        f"{len(FALSE_CASES)} documented reference defects kept as strict xfails; "
        "family independence holds except the documented 'b1' pair",
    )


# -- criterion 4: first cocycle space of the module map -------------------------


def test_criterion_4_module_kernel_dimension():
    phi = morphism("a1_b1")
    delta = coboundary_matrix_module(phi, 0)
    kernel = kernel_basis(delta)
    assert kernel.rows == 8
    basis = dense_rows(kernel)
    # hand-derived constraint set: the kernel is exactly the maps killing
    # the second and fourth source generators
    d = phi.source.dim
    for v in basis:
        for killed in (1, 3):
            assert all(v[killed * d + t] == 0 for t in range(d))
    free_cols = {0, 2}
    seen = {c // d for vv in basis for c, x in enumerate(vv) if x}
    assert seen == free_cols
    record("criterion 4 (module kernel is 8-dimensional with exact support)", True)


# -- criterion 5: golden first-cohomology reports --------------------------------


@pytest.mark.parametrize("key", H1_INSTANCES)
def test_criterion_5_golden_reports(key):
    args = (
        "--output",
        "json",
        "cohomology",
        "--morphism",
        f"src/nliecoh/data/mor_{key}.json",
        "--degree",
        "1",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout, "report must be byte-deterministic"
    golden_path = GOLDEN / f"h1_{key}.json"
    assert first.stdout == golden_path.read_text(), f"golden drift for {key}"
    phi = morphism(key)
    fast = coboundary_matrix_module(phi, 0)
    slow = oracle_matrix(phi.source, 0, phi.target, phi.matrix)
    assert fast == slow, "canonical assembly and brute-force differential differ"
    report = json.loads(first.stdout)
    computed = report["dimensions"]["dim Z^1"]
    claims = json.loads((GOLDEN / "h1_claims.json").read_text())
    assert claims[key]["computed_dim_z1"] == computed
    assert claims[key]["noted_claim"] == H1_NOTED_CLAIM


def test_criterion_5_summary():
    claims = json.loads((GOLDEN / "h1_claims.json").read_text())
    detail = ", ".join(
        f"{k}: computed {v['computed_dim_z1']} (claim {v['noted_claim']})"
        for k, v in claims.items()
    )
    record("criterion 5 (golden H^1 reports, oracle-agreed, deterministic)", True, detail)


# -- criterion 6: randomized property sweep --------------------------------------


def test_criterion_6_property_sweep():
    catalog = full_catalog()
    assert len(catalog) >= 100
    checked = 0
    for alg in catalog:
        d1 = coboundary_matrix_self(alg, 0)
        d2 = coboundary_matrix_self(alg, 1)
        assert d2.mul(d1).is_zero(), alg.name
        for m in (d1, d2):
            assert rank(m) + kernel_basis(m).rows == m.cols
        wedges = [
            FundamentalObject.from_basis(alg.dim, w)
            for w in __import__("itertools").combinations(
                range(alg.dim), alg.arity - 1
            )
        ]
        for x in wedges:
            for y in wedges:
                xy = fundamental_bracket(alg, x, y)
                z = unit(alg.dim, 0)
                lhs = ad_action(alg, xy, z)
                rhs1 = ad_action(alg, x, ad_action(alg, y, z))
                rhs2 = ad_action(alg, y, ad_action(alg, x, z))
                assert lhs == tuple(a - b for a, b in zip(rhs1, rhs2))
        checked += 1
    import random

    for alg in catalog[:30]:
        rng = random.Random(alg.name + "#skew")
        n, d = alg.arity, alg.dim
        space = CochainSpace(alg, 2, d)
        f = Cochain(
            space,
            {(key, t): rng.randint(-2, 2) for key in space.domain_keys for t in range(d)},
        )
        blocks = [
            [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n - 1)]
            for _ in range(2)
        ]
        vs = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n)]
        delta = coboundary_matrix_self(alg, 2)
        base = delta_value(delta, f, blocks + [vs[:-1]], vs[-1])
        swapped = delta_value(delta, f, blocks + [vs[:-2] + [vs[-1]]], vs[-2])
        assert swapped == tuple(-x for x in base)
    for key in ("a1_b1", "a3_b3", "a1_b2_i1"):
        phi = morphism(key)
        dm0 = coboundary_matrix_module(phi, 0)
        dm1 = coboundary_matrix_module(phi, 1)
        assert dm1.mul(dm0).is_zero()
        tc = triple_complex(phi)
        for m in (0, 1):
            assert tc.delta_matrix(m + 1).mul(tc.delta_matrix(m)).is_zero()
    record(
        "criterion 6 (property sweep)",
        True,
        f"{checked} catalog algebras: dd=0, rank-nullity, block-action "
        "commutator; skewness on 30; module and triple complexes dd=0 on "
        "3 morphisms",
    )


# -- criterion 7: deformation suite -----------------------------------------------


def _order1_corpus():
    return [
        ("bundled order-1 instance", deformation("a3_b3_1")),
        ("identity-pair instance", identity_pair_deformation()),
        ("truncated order-2 instance", deformation("a3_b3_order2").truncated(1)),
    ]


def test_criterion_7a_infinitesimals_are_cocycles():
    for label, dm in _order1_corpus():
        assert validate_deformation(dm).is_valid, label
        _theta, is_cocycle = infinitesimal(dm)
        assert is_cocycle, label
    record("criterion 7a (infinitesimals of validated instances are cocycles)", True)


def test_criterion_7b_obstruction_identities():
    dm2 = deformation("a3_b3_order2")
    trunc = dm2.truncated(1)
    ob = obstruction(trunc)
    tc = triple_complex(dm2.base_morphism)
    assert tc.is_cocycle(ob), "obstruction must be a cocycle"
    theta2 = triple(
        dm2.src_def.terms[1],
        dm2.tgt_def.terms[1],
        linear_map_cochain(
            CochainSpace(dm2.src_def.base, 0, dm2.tgt_def.base.dim), dm2.phi_terms[2]
        ),
    )
    assert vectorize(tc.coboundary(theta2)) == vectorize(ob)
    record("criterion 7b (delta(Ob)=0 and delta(theta_2)=Ob, exact)", True)


def test_criterion_7c_extension_roundtrip():
    trunc = deformation("a3_b3_order2").truncated(1)
    witness = extend_order(trunc)
    assert witness is not None
    extended = extend_deformation(trunc, witness)
    assert validate_deformation(extended).is_valid
    assert extended.order == 2
    record("criterion 7c (extension witness found and re-validates)", True)


def _transformed_order1():
    dm = deformation("a3_b3_1")
    return apply_automorphism(dm, automorphism("a3_scaling"), automorphism("b3_identity"))


def test_criterion_7d_transform_morphism_formulas():
    """Transformed map series matches the closed-form coefficients."""
    out = _transformed_order1()
    assert validate_deformation(out).is_valid
    base, first = out.phi_terms
    # base map unchanged; images of the third and fourth generators:
    # e3 -> f4 exactly (the first-order corrections cancel), and
    # e4 -> f2 + f3 - t f3.
    assert base == deformation("a3_b3_1").phi_terms[0]
    assert column(first, 0) == (0, 0, 0, 0)
    assert column(first, 1) == (0, 0, 0, 0)
    assert column(first, 2) == (0, 0, 0, 0)
    assert column(first, 3) == (0, 0, -1, 0)
    record("criterion 7d-morphism (transformed map matches closed form)", True)


def test_criterion_7d_transform_bracket_ground_truth():
    """The degree-1 part of the bundled automorphism is a derivation, so the
    bracket family is exactly invariant; all other brackets stay zero."""
    out = _transformed_order1()
    dm = deformation("a3_b3_1")
    assert coeffs(out.src_def.terms[0]) == coeffs(dm.src_def.terms[0])
    assert out.tgt_def.terms[0].is_zero()
    record(
        "criterion 7d-bracket (ground truth: bracket family invariant, "
        "(1+0t)e1 + t e2 on the active triple)",
        True,
    )


@pytest.mark.xfail(
    strict=True,
    reason="the transcribed closed form gains (b'33+b'44)t on the leading "
    "coefficient, but the bundled automorphism has a derivation as degree-1 "
    "part, which provably leaves the bracket family invariant (equivalence-"
    "class invariance, criterion 8, confirms this); see the project notes",
)
def test_criterion_7d_transform_bracket_quoted_form():
    out = _transformed_order1()
    term = out.src_def.terms[0]
    key = (((1, 2, 3),), 0)  # leading coefficient on the active triple
    assert coeffs(term).get(key, Fraction(0)) == 2  # "(1+2t) e1 + t e2"


# -- criterion 8: equivalence-class invariance --------------------------------------


def test_criterion_8_equivalence_invariance():
    from nliecoh.deformations import FormalAutomorphism
    from nliecoh.linalg import Matrix

    pairs = [
        (
            deformation("a3_b3_1"),
            automorphism("a3_scaling"),
            automorphism("b3_identity"),
        ),
        (
            deformation("a3_b3_order2").truncated(1),
            FormalAutomorphism.from_first_order(
                Matrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
            ),
            FormalAutomorphism.from_first_order(
                Matrix.from_rows([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
            ),
        ),
        (
            identity_pair_deformation(),
            FormalAutomorphism.from_first_order(
                Matrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])
            ),
            FormalAutomorphism.from_first_order(
                Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 0, 0]])
            ),
        ),
    ]
    for dm, psi_n, psi_t in pairs:
        out = apply_automorphism(dm, psi_n, psi_t)
        assert validate_deformation(out).is_valid
        theta_before, _ = infinitesimal(dm)
        theta_after, _ = infinitesimal(out)
        phi = dm.base_morphism
        tc = triple_complex(phi)
        alpha = triple(
            linear_map_cochain(
                CochainSpace(phi.source, 0, phi.source.dim), psi_n.term(1)
            ),
            linear_map_cochain(
                CochainSpace(phi.target, 0, phi.target.dim), psi_t.term(1)
            ),
            None,
        )
        diff = zip(vectorize(theta_before), vectorize(theta_after))
        assert tuple(x - y for x, y in diff) == vectorize(tc.coboundary(alpha))
    record(
        "criterion 8 (infinitesimals differ by exactly the coboundary of the "
        "degree-1 automorphism pair)",
        True,
        f"{len(pairs)} deformation/automorphism pairs",
    )
