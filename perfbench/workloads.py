"""The three workloads: fixed lists of ``nliecoh`` CLI jobs over JSON inputs.

Every job runs as ``nliecoh.cli.main(["--output", "json", *argv])`` with
repo-relative paths, because report bytes embed the argv and input paths.
A job's ``ref`` names the reference entry it is checked against: the argv
of the bundled original it is isomorphic to (its own argv for a job on
bundled files).
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import gen

DATA = "src/nliecoh/data"
WORK = "perfbench/.work"
NAMES = ("corpus-cli", "deep-self", "dense-conj")

ALGEBRAS = ("a1", "a3", "b1", "b2", "b3")
MORPHISMS = ("a1_b1", "a1_b2_i1", "a1_b2_i2", "a3_b3", "a3_b3_i2")
DEFORMATIONS = ("def_a3_b3_1", "def_a3_b3_order2")
GOLDEN = ("a1_b2_i1", "a1_b2_i2", "a3_b3", "a3_b3_i2")
DENSE_MORPHISM_DEGREES = (("a3_b3", 2), ("a1_b2_i1", 2), ("a1_b2_i1", 3))
# The unpermuted direct sums live here while the reference is built; deep-self
# jobs name them as their originals.
ORIGINAL_SUMS = f"{WORK}/original"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    ref: str
    exact: bool  # bundled inputs: the report bytes themselves are checked
    emit: str | None = None  # file the job writes, checked when exact


def key(argv) -> str:
    return " ".join(argv)


def _exact(*argv: str, emit: str | None = None) -> Job:
    return Job(tuple(argv), key(argv), True, emit)


def _deform_commands(d: str, emit: str | None = None) -> list[tuple]:
    """The five README deformation commands over the files in directory d."""
    transform = (
        "deform", "transform", f"{d}/def_a3_b3_1.json",
        "--psi-source", f"{d}/aut_a3_scaling.json",
        "--psi-target", f"{d}/aut_b3_identity.json",
    )
    if emit:
        transform += ("--emit", emit)
    return [
        ("deform", "check", f"{d}/def_a3_b3_1.json"),
        ("deform", "infinitesimal", f"{d}/def_a3_b3_1.json"),
        ("deform", "obstruction", f"{d}/def_a3_b3_order2.json", "--order", "1"),
        ("deform", "extend", f"{d}/def_a3_b3_order2.json", "--order", "1"),
        transform,
    ]


def corpus_units() -> list[list[Job]]:
    """Every README command over every bundled file: 56 jobs.

    Jobs that share an in-process cache form one unit in a fixed order (the
    morphism complex of one morphism at r = 1..3; the deformation commands),
    so a shuffle of the units moves no work from one job to another.
    """
    emit = f"{WORK}/corpus-cli/transform.json"
    units = [[_exact("validate", f"{DATA}/alg_{a}.json")] for a in ALGEBRAS]
    units += [[_exact("validate", f"{DATA}/mor_{m}.json")] for m in MORPHISMS]
    units += [[_exact("validate", f"{DATA}/{d}.json")] for d in DEFORMATIONS]
    for a in ALGEBRAS:
        for r in (1, 2):
            units.append([_exact("cohomology", "--algebra", f"{DATA}/alg_{a}.json", "--degree", str(r), "--basis")])
    for m in MORPHISMS:
        for r in (1, 2):
            units.append([_exact("cohomology", "--morphism", f"{DATA}/mor_{m}.json", "--degree", str(r), "--basis")])
    for m in MORPHISMS:
        units.append([
            _exact("morphism-cohomology", "--morphism", f"{DATA}/mor_{m}.json", "--degree", str(r), "--basis")
            for r in (1, 2, 3)
        ])
    # exactly the commands whose reports tests/golden freezes
    units += [[_exact("cohomology", "--morphism", f"{DATA}/mor_{m}.json", "--degree", "1")] for m in GOLDEN]
    units.append([_exact(*argv, emit=emit if argv[1] == "transform" else None) for argv in _deform_commands(DATA, emit)])
    return units


def corpus_jobs() -> list[Job]:
    return [job for unit in corpus_units() for job in unit]


def _deep_jobs(inputs: str) -> list[Job]:
    jobs = [_exact("cohomology", "--algebra", f"{DATA}/alg_b3.json", "--degree", "4")]
    for a in gen.DEEP_SUMS:
        argv = ("cohomology", "--algebra", f"{inputs}/alg_{a}_e5.json", "--degree", "3")
        original = ("cohomology", "--algebra", f"{ORIGINAL_SUMS}/alg_{a}_e5.json", "--degree", "3")
        jobs.append(Job(argv, key(original), False))
    jobs.append(_exact("deform", "obstruction", f"{DATA}/def_a3_b3_order2.json"))
    jobs.append(_exact("deform", "extend", f"{DATA}/def_a3_b3_order2.json"))
    jobs.append(_exact(
        "deform", "transform", f"{DATA}/def_a3_b3_order2.json",
        "--psi-source", f"{DATA}/aut_a3_scaling.json",
        "--psi-target", f"{DATA}/aut_b3_identity.json",
    ))
    return jobs


def _dense_jobs(inputs: str) -> list[Job]:
    pairs = []
    for a in gen.DENSE_ALGEBRAS:
        for r in (2, 3):
            pairs.append(("cohomology", "--algebra", f"alg_{a}.json", "--degree", str(r), "--basis"))
    for m, r in DENSE_MORPHISM_DEGREES:
        pairs.append(("morphism-cohomology", "--morphism", f"mor_{m}.json", "--degree", str(r), "--basis"))
    jobs = []
    for argv in pairs:
        jobs.append(Job(
            tuple(f"{inputs}/{x}" if x.endswith(".json") else x for x in argv),
            key(f"{DATA}/{x}" if x.endswith(".json") else x for x in argv),
            False,
        ))
    for generated, original in zip(_deform_commands(inputs), _deform_commands(DATA)):
        jobs.append(Job(generated, key(original), False))
    return jobs


def _validate_inputs(inputs: Path) -> None:
    """Reject a generated file the program itself finds invalid."""
    from nliecoh import jsonio
    from nliecoh.algebra import validate_algebra
    from nliecoh.deformations import validate_deformation
    from nliecoh.morphisms import validate_morphism

    for path in sorted(inputs.glob("*.json")):
        kind = jsonio.detect_kind(jsonio.load_json(path))
        if kind == "algebra":
            valid = validate_algebra(jsonio.load_algebra(path)).is_valid
        elif kind == "morphism":
            valid = validate_morphism(jsonio.load_morphism(path)).is_valid
        elif kind == "deformation":
            valid = validate_deformation(jsonio.load_deformation(path)).is_valid
        else:
            jsonio.load_automorphism(path)
            valid = True
        if not valid:
            raise RuntimeError(f"generated input {path} fails validation")


def prepare(root: Path, workload: str, seed: int) -> list[Job]:
    """Write the workload's seeded inputs and return its job list."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    out = root / WORK / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs = f"{WORK}/{workload}/inputs"
    if workload == "corpus-cli":
        rng = random.Random(f"corpus-cli/{seed}")
        jobs = []
        for _ in range(2):
            units = corpus_units()
            rng.shuffle(units)
            jobs += [job for unit in units for job in unit]
        return jobs
    if workload == "deep-self":
        gen.make_deep_sums(root, root / inputs, seed)
        jobs = _deep_jobs(inputs)
    else:
        gen.make_dense_conjugates(root, root / inputs, seed)
        jobs = _dense_jobs(inputs)
    _validate_inputs(root / inputs)
    return jobs


def reference_jobs(root: Path) -> list[Job]:
    """Every original a workload job is checked against, run as is."""
    gen.make_deep_sums(root, root / ORIGINAL_SUMS, None)
    seen: dict[str, Job] = {}
    for job in corpus_jobs() + _deep_jobs("x") + _dense_jobs("x"):
        if job.ref not in seen:
            argv = tuple(job.ref.split(" "))
            seen[job.ref] = Job(argv, job.ref, job.exact, job.emit)
    return list(seen.values())
