"""Benchmark of the nliecoh CLI: end-to-end metrics, or per-layer ones traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0

A run repeats the workload's job list in fresh worker processes (passes),
one job at a time, with no threads: at least two passes, then more while
another of median length fits in ``--seconds``.  Every pass runs the same
inputs, made from ``--seed``.  Times are in reference-speed seconds
(``refclock.py``): wall time scaled by the speed of a fixed probe loop
timed around and inside each job, because on a shared cloud machine the
same code runs at speeds up to a factor of two apart.  Each job's time is
its median over the passes.

With ``--trace 0`` it prints the end-to-end metrics:

* ``setup_s``: median over the run's passes of the time from starting a
  worker to its first job.
* ``wall_s``: time to solution of the whole job list, the sum of the jobs'
  times.
* ``peak_rss_mib``: median over passes of the worker's peak resident set.

It also prints, outside the result, the plain wall time of the job list,
``failed_frac`` and, on a job list of at least ``PERCENTILE_MIN_JOBS`` jobs
(corpus-cli), the 50th and 90th percentiles of the per-job times with their
sample count.  They are reported, not bounded.

With ``--trace 1`` the passes alternate untraced and traced (at least two
each) and it prints the per-layer metrics of ``tracer.py`` from the
fastest traced pass, plus ``trace.overhead_frac``: traced over untraced
``wall_s``, minus one.  Layer times are plain wall time.

Every job's output is checked against ``reference.json``, and in the
run's first pass the vectors of the self-cohomology bases on generated
inputs are checked too (``check.py``); ``failed`` counts job runs that
raised, exited with the wrong status or printed a wrong report.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/nliecoh`` next to
this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
MIN_TRACED_PASSES = 2
DEADLINE_S = 170.0  # a run must end within 180 s
PERCENTILE_MIN_JOBS = 100  # ten jobs beyond the 90th percentile

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts workers for one workload and seed, and keeps their results."""

    def __init__(self, workload: str, seed: int, results_dir: Path, start: float):
        self.workload = workload
        self.seed = seed
        self.results_dir = results_dir
        self.start = start
        self.count = 0

    def spawn(self, trace: bool = False) -> tuple[dict, float]:
        self.count += 1
        out = self.results_dir / f"pass{self.count}.json"
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise WorkerFailed("run deadline reached")
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--t0", repr(t0), "--out", str(out),
        ]
        if trace:
            cmd.append("--trace")
        if self.count == 1:
            cmd.append("--check-bases")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed("worker exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited with status {proc.returncode}")
        return json.loads(out.read_text()), time.monotonic() - t0


def job_times(passes: list[dict], key: str = "ref_s") -> list[float]:
    """Each job's median time over the passes (same job list in each)."""
    return [statistics.median(times) for times in zip(*([j[key] for j in p["jobs"]] for p in passes))]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def measure(runner: Runner, seconds: float, trace: bool):
    """Run passes until the minimum is done and another would not fit."""
    kinds = [False, True] if trace else [False]
    passes: dict[bool, list[dict]] = {False: [], True: []}
    setups: list[float] = []
    durations: list[float] = []
    while True:
        for traced in kinds:
            result, took = runner.spawn(trace=traced)
            passes[traced].append(result)
            durations.append(took)
            setups.append(result["setup_ref_s"])
        enough = len(passes[False]) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        elapsed = time.monotonic() - runner.start
        if enough and elapsed + len(kinds) * statistics.median(durations) > seconds:
            return passes, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nliecoh benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nliecoh" / "cli.py").is_file():
        print(f"no nliecoh sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    results_dir = ROOT / workloads.WORK / f"results-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, results_dir, start)
    try:
        passes, setups = measure(runner, args.seconds, bool(args.trace))
        if args.trace:
            fastest = min(passes[True], key=lambda p: sum(j["ref_s"] for j in p["jobs"]))
            index = passes[True].index(fastest)
            spans = results_dir / f"pass{2 * index + 2}.spans.json"
            if spans.exists():
                shutil.copyfile(spans, ROOT / workloads.WORK / f"spans-{args.workload}.json")
    except WorkerFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(results_dir, ignore_errors=True)

    all_passes = passes[False] + passes[True]
    job_runs = [j for p in all_passes for j in p["jobs"]]
    failures = [j for j in job_runs if j["error"] is not None]
    for j in failures[:10]:
        print(f"FAILED {j['ref']}: {j['error']}", file=sys.stderr)

    untraced = job_times(passes[False])
    values: dict[str, float] = {}
    units = dict(END_TO_END)
    if args.trace:
        traced = job_times(passes[True])
        values.update(fastest["layers"])
        values["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1
        units = dict(tracer.METRICS)
        units["trace.overhead_frac"] = "ratio"
        if fastest.get("missing_targets"):
            print(f"not traced (absent): {', '.join(fastest['missing_targets'])}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(untraced),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes[False]),
        }

    n_jobs = len(untraced)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(passes[False])} untraced"
        f" and {len(passes[True])} traced passes of {n_jobs} jobs,"
        f" {len(setups)} set-ups, {time.monotonic() - start:.1f} s"
    )
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(f"  {'plain wall time':34s} {sum(job_times(passes[False], 'wall_s')):14.6f} s")
    print(f"  {'failed_frac':34s} {len(failures) / len(job_runs):14.6f} ({len(failures)} of {len(job_runs)} job runs)")
    if n_jobs >= PERCENTILE_MIN_JOBS:
        for q in (50, 90):
            print(f"  {f'job_s.p{q}':34s} {percentile(untraced, q):14.6f} s", end="")
            print(f" (over {n_jobs} jobs, each the median of {len(passes[False])} passes)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(job_runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
