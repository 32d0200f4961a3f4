"""One pass of a workload in a fresh process: set up, run every job, check.

Usage (from the root of a checkout; ``run.py`` starts it)::

    python3 perfbench/worker.py --workload NAME --seed N --t0 MONOTONIC \
        --out RESULT.json [--trace] [--check-bases]

Set-up is everything before the first job: importing ``nliecoh`` from this
checkout's ``src``, generating and validating the seeded inputs, and loading
the reference.  It is timed from ``--t0``, the parent's ``time.monotonic()``
just before it started this process (a system-wide clock on Linux).

Jobs run one at a time, in this thread, with stdout captured; a job's time
covers the ``cli.main`` call only, not the check of its output.  Every time
is taken both as wall time and in reference-speed seconds (``refclock.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import check
import refclock
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nliecoh
    import nliecoh.cli

    if not Path(nliecoh.__file__).resolve().is_relative_to(src):
        raise ImportError(f"nliecoh imported from {nliecoh.__file__}, not from {src}")
    return nliecoh.cli


def _call(cli, argv: list[str], buf: io.StringIO) -> tuple[object, str | None]:
    try:
        with contextlib.redirect_stdout(buf):
            return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception as exc:  # a traceback is a failed job, not a failed run
        return None, f"{type(exc).__name__}: {exc}"


def run_job(cli, job) -> tuple[object, str, float, float, str | None]:
    """(exit status, stdout, wall s, reference-speed s, error) of one job."""
    buf = io.StringIO()
    (status, error), wall_s, ref_s = refclock.RefClock().measure(
        _call, cli, ["--output", "json", *job.argv], buf
    )
    return status, buf.getvalue(), wall_s, ref_s, error


def run_pass(cli, jobs, reference, root: Path, bases: bool = False) -> list[dict]:
    """Run and check every job; with ``bases``, also the vectors of its bases."""
    results = []
    for job in jobs:
        if job.emit:
            (root / job.emit).unlink(missing_ok=True)
        status, stdout, wall_s, ref_s, error = run_job(cli, job)
        if error is None:
            emitted = (root / job.emit).read_bytes() if job.emit and (root / job.emit).exists() else None
            error = check.check(job, status, stdout, emitted, reference)
        if error is None and bases:
            error = check.check_bases(job, stdout, root)
        results.append({"ref": job.ref, "wall_s": wall_s, "ref_s": ref_s, "error": error})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check-bases", action="store_true")
    args = parser.parse_args(argv)

    clock = refclock.RefClock()
    clock.start()
    cli = _import_program()
    jobs = workloads.prepare(ROOT, args.workload, args.seed)
    reference = check.load_reference()
    setup_end = time.monotonic()
    inside = clock.stop()
    probes = [inside[0] if inside else refclock.probe(), *inside, refclock.edge_probe()]
    result = {
        "setup_s": setup_end - args.t0,
        "setup_ref_s": refclock.ref_seconds(args.t0, setup_end, probes),
    }
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    result["jobs"] = run_pass(cli, jobs, reference, ROOT, args.check_bases)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.aggregate(tracer.spans)
        result["missing_targets"] = tracer.missing
        spans_path = Path(args.out).with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.spans))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
