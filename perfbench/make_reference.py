"""Build ``reference.json``: the expected outcome of every benchmark job.

Usage, from the root of a checkout whose outputs are trusted::

    python3 perfbench/make_reference.py

It runs each job's bundled original once and records its exit status,
dimensions, verdict and report digest.  Before writing, it cross-checks the
table against what the test suite already freezes, and fails if any check
fails:

* the four first-cohomology reports equal ``tests/golden/h1_*.json`` byte
  for byte;
* the H^2 dimensions equal ``COMPUTED_H2`` in ``tests/test_acceptance.py``;
* every generated dense-conj and deep-self instance, for seeds 1 to
  ``CROSS_CHECK_SEEDS``, passes the checker against its original
  (isomorphism invariance).
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

CROSS_CHECK_SEEDS = 2


def computed_h2() -> dict:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "COMPUTED_H2" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("COMPUTED_H2 not found")


def build(cli) -> tuple[dict, dict]:
    """(reference table, stdout by ref) from running every original."""
    (ROOT / workloads.WORK / "corpus-cli").mkdir(parents=True, exist_ok=True)
    table, stdouts = {}, {}
    for job in workloads.reference_jobs(ROOT):
        status, stdout, _, _, error = worker.run_job(cli, job)
        if error is not None:
            raise RuntimeError(f"{job.ref}: {error}")
        emitted = (ROOT / job.emit).read_bytes() if job.emit else None
        entry = check.outcome(status, stdout, emitted)
        if not job.exact:
            del entry["sha256"]
        table[job.ref] = entry
        stdouts[job.ref] = stdout
    return table, stdouts


def cross_check(cli, table: dict, stdouts: dict) -> list[str]:
    problems = []
    for m in workloads.GOLDEN:
        ref = workloads.key(("cohomology", "--morphism", f"{workloads.DATA}/mor_{m}.json", "--degree", "1"))
        golden = (ROOT / "tests" / "golden" / f"h1_{m}.json").read_text()
        if stdouts[ref] != golden:
            problems.append(f"{ref}: differs from tests/golden/h1_{m}.json")
    for a, dim in computed_h2().items():
        ref = workloads.key(("cohomology", "--algebra", f"{workloads.DATA}/alg_{a}.json", "--degree", "2", "--basis"))
        if table[ref]["dimensions"]["dim H^2"] != dim:
            problems.append(f"{ref}: H^2 disagrees with COMPUTED_H2[{a!r}] = {dim}")
    for seed in range(1, CROSS_CHECK_SEEDS + 1):
        for name in ("dense-conj", "deep-self"):
            for job in workloads.prepare(ROOT, name, seed):
                if job.exact:
                    continue
                status, stdout, _, _, error = worker.run_job(cli, job)
                error = error or check.check(job, status, stdout, None, table)
                if error:
                    problems.append(f"{name} seed {seed}: {' '.join(job.argv)}: {error}")
    return problems


def main() -> int:
    cli = worker._import_program()
    table, stdouts = build(cli)
    problems = cross_check(cli, table, stdouts)
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        return 1
    check.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {check.REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
