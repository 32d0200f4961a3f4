"""Per-job expected outcomes and the check of one job against them.

``reference.json`` maps a job's ``ref`` to its exit status, the H/Z/B
dimensions and the verdict of the report, and, for jobs on bundled files,
the SHA-256 of the report bytes (and of the file ``--emit`` wrote).  A job
on generated files is isomorphic to its bundled original, so it must give
the original's status, dimensions and verdict; its bytes differ because the
report embeds the input paths, digests and basis coordinates.  Its bases
must have as many vectors as the dimensions say, and ``check_bases`` checks
the vectors of a self-cohomology basis against the generated algebra
(``cocycle.py``).  The bases of the morphism complex are checked by count
only.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import cocycle

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(status: int, stdout: str, emitted: bytes | None = None) -> dict:
    """Reference entry for one run of a job."""
    report = json.loads(stdout)
    entry = {"status": status, "sha256": sha256(stdout.encode())}
    for field in ("dimensions", "verdict"):
        if field in report:
            entry[field] = report[field]
    if emitted is not None:
        entry["emit_sha256"] = sha256(emitted)
    return entry


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check(job, status, stdout: str, emitted: bytes | None, reference: dict) -> str | None:
    """None when the job's outcome matches its reference, else the reason."""
    want = reference.get(job.ref)
    if want is None:
        return f"no reference entry for {job.ref!r}"
    if status != want["status"]:
        return f"exit status {status!r}, expected {want['status']}"
    if job.exact:
        if sha256(stdout.encode()) != want["sha256"]:
            return "report bytes differ from the reference"
        if "emit_sha256" in want and (emitted is None or sha256(emitted) != want["emit_sha256"]):
            return "emitted file differs from the reference"
        return None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "report is not JSON"
    for field in ("dimensions", "verdict"):
        if report.get(field) != want.get(field):
            return f"{field} {report.get(field)!r}, expected {want.get(field)!r}"
    bases = report.get("bases")
    if bases is not None:
        dims = report["dimensions"]
        z = next(v for k, v in dims.items() if k.startswith("dim Z"))
        h = next(v for k, v in dims.items() if k.startswith("dim H"))
        if len(bases["cocycle_basis"]) != z or len(bases["representatives"]) != h:
            return "basis sizes disagree with the dimensions"
    return None


def check_bases(job, stdout: str, root: Path) -> str | None:
    """None unless ``job`` lists self-cohomology bases that are not cocycles
    of its algebra or not independent."""
    if job.exact or "--algebra" not in job.argv or "--basis" not in job.argv:
        return None
    algebra = json.loads((root / job.argv[job.argv.index("--algebra") + 1]).read_text())
    return cocycle.check_bases(algebra, json.loads(stdout)["bases"], random.Random(job.ref))
