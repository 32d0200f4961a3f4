"""Tests of the benchmark itself: checker, generator and tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import cocycle  # noqa: E402
import gen  # noqa: E402
import refclock  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CLI = worker._import_program()
REFERENCE = check.load_reference()
DATA = workloads.DATA

# Cheap corpus jobs that still reach every layer the tracer wraps.
SMALL_JOBS = [
    job
    for job in workloads.corpus_jobs()
    if job.argv[0] == "deform"
    or any(a.endswith(("/mor_a3_b3.json", "/alg_b2.json", "/mor_a1_b2_i1.json")) for a in job.argv)
    and job.argv[-2:] != ("3", "--basis")
]


def _run(jobs):
    """(status, stdout, seconds, error or failed check) of each job."""
    (ROOT / workloads.WORK / "corpus-cli").mkdir(parents=True, exist_ok=True)
    out = []
    for job in jobs:
        status, stdout, seconds, _, error = worker.run_job(CLI, job)
        emitted = (ROOT / job.emit).read_bytes() if job.emit else None
        out.append((status, stdout, seconds, error or check.check(job, status, stdout, emitted, REFERENCE)))
    return out


def test_checker_accepts_reference_and_flags_one_corrupted_byte():
    job = next(j for j in workloads.corpus_jobs() if j.argv[0] == "morphism-cohomology")
    status, stdout, _, _, error = worker.run_job(CLI, job)
    assert error is None
    assert check.check(job, status, stdout, None, REFERENCE) is None
    pos = stdout.index('"dim Z^') + 1
    corrupted = stdout[:pos] + "D" + stdout[pos + 1 :]
    assert corrupted != stdout
    assert check.check(job, status, corrupted, None, REFERENCE) == "report bytes differ from the reference"
    assert check.check(job, 1, stdout, None, REFERENCE).startswith("exit status")


def test_checker_compares_generated_jobs_by_invariants(tmp_path):
    gen.make_dense_conjugates(ROOT, tmp_path, seed=7)
    job = workloads.Job(
        ("cohomology", "--algebra", str(tmp_path / "alg_b2.json"), "--degree", "2", "--basis"),
        workloads.key(("cohomology", "--algebra", f"{DATA}/alg_b2.json", "--degree", "2", "--basis")),
        False,
    )
    status, stdout, _, _, error = worker.run_job(CLI, job)
    assert error is None
    assert check.check(job, status, stdout, None, REFERENCE) is None
    wrong = stdout.replace('"dim H^2": 9', '"dim H^2": 8')
    assert wrong != stdout
    assert check.check(job, status, wrong, None, REFERENCE).startswith("dimensions")


def test_basis_check_accepts_reported_bases_and_flags_wrong_vectors(tmp_path):
    import json
    import random

    gen.make_dense_conjugates(ROOT, tmp_path, seed=7)
    algebra = json.loads((tmp_path / "alg_b1.json").read_text())
    for degree in ("2", "3"):
        job = workloads.Job(
            ("cohomology", "--algebra", str(tmp_path / "alg_b1.json"), "--degree", degree, "--basis"),
            "ref",
            False,
        )
        _, stdout, _, _, error = worker.run_job(CLI, job)
        assert error is None
        assert check.check_bases(job, stdout, ROOT) is None
    bases = json.loads(stdout)["bases"]
    assert bases["representatives"]
    first = bases["representatives"][0]
    dependent = dict(bases, representatives=bases["representatives"] + [first])
    assert "dependent" in cocycle.check_bases(algebra, dependent, random.Random(1))
    # the first representative plus one basis coordinate that is no cocycle
    entry = dict(first["entries"][0], target_index=1, value="1", blocks=[[1, 2]], last=[1, 2, 3])
    broken = dict(first, entries=first["entries"] + [entry])
    wrong = dict(bases, representatives=[broken] + bases["representatives"][1:])
    assert "not a cocycle" in cocycle.check_bases(algebra, wrong, random.Random(1))


def test_reference_seconds_scale_wall_time_by_probe_speed():
    ref = refclock.REF_PROBE_S
    # a 1-second region, probed at its ends at the reference speed
    assert refclock.ref_seconds(10.0, 11.0, [(9.0, ref), (11.5, ref)]) == pytest.approx(1.0)
    # twice slower in its second half, with the probe inside cut out
    probes = [(9.0, ref), (10.5, ref), (12.0, 3 * ref)]
    expected = 0.5 + (0.5 - ref) / 2
    assert refclock.ref_seconds(10.0, 11.0, probes) == pytest.approx(expected)


@pytest.mark.parametrize("make", [gen.make_dense_conjugates, gen.make_deep_sums])
def test_generator_is_deterministic_per_seed(tmp_path, make):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        make(ROOT, tmp_path / name, seed)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files
    same = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files]
    other = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "c" / f).read_bytes() for f in files]
    assert all(same)
    assert not all(other)


def test_generated_inputs_pass_validation(tmp_path):
    gen.make_dense_conjugates(ROOT, tmp_path / "dense", seed=5)
    gen.make_deep_sums(ROOT, tmp_path / "deep", seed=5)
    workloads._validate_inputs(tmp_path / "dense")
    workloads._validate_inputs(tmp_path / "deep")


def test_traced_and_untraced_reports_are_identical_and_layers_fit_in_wall():
    import nliecoh.morphisms

    nliecoh.morphisms.triple_complex.cache_clear()
    untraced = _run(SMALL_JOBS)
    nliecoh.morphisms.triple_complex.cache_clear()
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = _run(SMALL_JOBS)
    finally:
        spans.uninstall()
    assert not spans.missing
    assert [r[:2] for r in traced] == [r[:2] for r in untraced]
    assert [r[3] for r in untraced + traced] == [None] * (2 * len(SMALL_JOBS))

    layers = tracer.aggregate(spans.spans)
    wall = sum(r[2] for r in traced)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < self_total <= wall
    for name, _ in tracer.METRICS:
        if name.endswith(".self_s") or name.endswith(".calls"):
            assert layers[name] > 0, name
    assert layers["morphisms.triple_cache.misses"] > 0
    assert layers["linalg.elim.nnz"] <= layers["linalg.elim.cells"]
    assert 0 < layers["algebra.validate.useful_ratio"] <= 1


def test_uninstall_restores_every_original():
    import nliecoh.cochains
    import nliecoh.linalg
    import nliecoh.morphisms

    before = (
        nliecoh.cochains.kernel_basis,
        nliecoh.morphisms.triple_complex,
        nliecoh.linalg.Matrix.mul,
        nliecoh.cochains.CochainSpace.__dict__["domain_keys"].func,
    )
    spans = tracer.Tracer()
    spans.install()
    assert nliecoh.cochains.kernel_basis is not before[0]
    assert nliecoh.morphisms.triple_complex.__wrapped__ is before[1]
    spans.uninstall()
    after = (
        nliecoh.cochains.kernel_basis,
        nliecoh.morphisms.triple_complex,
        nliecoh.linalg.Matrix.mul,
        nliecoh.cochains.CochainSpace.__dict__["domain_keys"].func,
    )
    assert after == before
