"""Command-line surface: validation, cohomology reports, deformation tools.

Reports are deterministic: identical inputs produce byte-identical output.
Exit codes: 0 success/valid, 1 mathematical failure, 2 parse or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from pathlib import Path
from typing import Optional, Sequence

from . import jsonio
from .algebra import ValidationReport, validate_algebra
from .cochains import CochainSpace, module_cohomology, self_cohomology
from .deformations import (
    apply_automorphism,
    extend_deformation,
    extend_order,
    infinitesimal,
    obstruction,
    validate_deformation,
)
from .errors import NliecohError, ParseError
from .jsonio import CochainText, deformation_to_json, dump_json, file_digest, format_rational
from .morphisms import morphism_cohomology, triple_complex, validate_morphism


def _residual_json(report: ValidationReport) -> list:
    """A report's failures, 1-based: a deformation's by part, order and key,
    the fundamental identity's by its x and y tuples, the map equation's by
    its bracket tuple."""
    out = []
    for f in report.failures:
        key = [[i + 1 for i in t] for t in f.key]
        if report.kind == "deformation":
            entry = {"part": f.part, "order": f.order, "key": key}
        elif f.part == "algebra":
            entry = {"x_tuple": key[0], "y_tuple": key[1]}
        else:
            entry = {"bracket_tuple": key[0]}
        entry["residual"] = [format_rational(c) for c in f.residual]
        out.append(entry)
    return out


def _render(report: dict, output: str) -> str:
    return dump_json(report) if output == "json" else _text_report(report)


def _text_report(report: dict) -> str:
    lines = [f"command: {' '.join(report['command'])}"]
    if "error" in report:
        lines.append(f"error: {report['error']}")
    if "verdict" in report:
        for k, v in report["verdict"].items():
            lines.append(f"{k}: {v}")
    for k, v in report.get("dimensions", {}).items():
        lines.append(f"{k} = {v}")
    residuals = report.get("residuals", [])
    if residuals:
        lines.append(f"failures ({len(residuals)}):")
        for r in residuals:
            lines.append(f"  {r}")
    if "artifacts" in report:
        lines.append("artifacts: (run with --output json to inspect)")
    lines.append(f"status: {report['status']}")
    return "".join(line + "\n" for line in lines)


def _report(argv, paths, verdict: dict, status: int, bases=None, **body) -> tuple[dict, int]:
    """A report and its exit status.  Keys come in a fixed order: command,
    inputs (each path's digest), verdict, the body, status, then any bases."""
    inputs = {p: file_digest(p) for p in paths}
    out = {"command": argv, "inputs": inputs, "verdict": verdict, **body, "status": status}
    if bases is not None:
        out["bases"] = bases
    return out, status


def cmd_validate(args, argv: list[str]) -> tuple[dict, int]:
    obj = jsonio.load_json(args.path)
    kind = jsonio.detect_kind(obj, args.path)
    base_dir = Path(args.path).parent
    if kind == "algebra":
        report = validate_algebra(jsonio.algebra_from_json(obj, args.path))
    elif kind == "morphism":
        report = validate_morphism(jsonio.morphism_from_json(obj, base_dir, where=args.path))
    elif kind == "deformation":
        report = validate_deformation(jsonio.deformation_from_json(obj, base_dir, where=args.path))
    else:  # automorphism series: identity leading term is implicit, always valid
        jsonio.automorphism_from_json(obj, args.path)
        report = ValidationReport(args.path, "automorphism", ())
    verdict = {"kind": kind, "valid": report.is_valid}
    return _report(argv, [args.path], verdict, int(not report.is_valid),
                   residuals=_residual_json(report))


def cmd_cohomology(args, argv: list[str]) -> tuple[dict, int]:
    """H^r of an algebra (``cohomology --algebra``), of the module a morphism
    makes of its target (``cohomology --morphism``) or of a morphism's complex
    (``morphism-cohomology``).  They differ in the subject that must be
    valid, the group computed and the spaces a flat basis row lies on: each
    row of ``ints``/``dens`` is taken as the integer row of a Cochain on
    those spaces as it is, with no copy, and written from its integers."""
    r = args.degree
    paths = [p for p in (args.algebra, args.module, args.morphism) if p]
    if args.morphism:
        subject = phi = jsonio.load_morphism(args.morphism)
        for option, path, side, name in (
            ("--algebra", args.algebra, phi.source, "source"),
            ("--module", args.module, phi.target, "target"),
        ):
            if path and jsonio.load_algebra(path) != side:
                raise ParseError(f"{option} disagrees with the morphism's {name}")
    elif args.module:
        raise ParseError("--module requires --morphism")
    else:
        subject = jsonio.load_algebra(args.algebra)
    if not subject.report.is_valid:
        verdict = {"valid": False, "reason": f"{subject.report.kind} fails validation"}
        return _report(argv, paths, verdict, 1, residuals=_residual_json(subject.report))
    if args.command == "morphism-cohomology":
        rep = morphism_cohomology(phi, r)
        spaces = triple_complex(phi).spaces(r - 1)
    elif args.morphism:
        rep = module_cohomology(phi, r)
        spaces = (CochainSpace(phi.source, r - 1, phi.target.dim),)
    else:
        rep = self_cohomology(subject, r)
        spaces = (CochainSpace(subject, r - 1, subject.dim),)
    dims = {f"dim {g}^{r}": n for g, n in zip("ZBH", (rep.dim_z, rep.dim_b, rep.dim_h))}
    heads: dict = {}  # the key texts, shared by the rows of both bases
    bases = {
        name: [CochainText(spaces, row, den, heads) for row, den in zip(m.ints, m.dens)]
        for name, m in (("cocycle_basis", rep.cocycles), ("representatives", rep.classes))
    } if args.basis else None
    return _report(argv, paths, {"valid": True}, 0, bases, dimensions=dims)


def cmd_deform(args, argv: list[str]) -> tuple[dict, int]:
    paths = [args.deformation]
    dm = jsonio.load_deformation(args.deformation)
    if args.subcommand == "transform":
        paths += [args.psi_source, args.psi_target]
        psi_n = jsonio.load_automorphism(args.psi_source)
        psi_t = jsonio.load_automorphism(args.psi_target)
        for path, psi, alg in (
            (args.psi_source, psi_n, dm.src_def.base),
            (args.psi_target, psi_t, dm.tgt_def.base),
        ):
            if psi.dim != alg.dim:
                raise ParseError(
                    f"{path}: automorphism dimension {psi.dim}, expected {alg.dim}"
                )
    if args.order is not None:
        if args.order > dm.order:
            raise ParseError(f"--order {args.order} exceeds file order {dm.order}")
        dm = dm.truncated(args.order)
    if args.subcommand == "infinitesimal" and dm.order < 1:
        raise ParseError(f"deform infinitesimal needs order at least 1, got {dm.order}")
    report = dm.report
    if args.subcommand == "check" or not report.is_valid:
        verdict = {"valid": report.is_valid, "order": dm.order}
        return _report(argv, paths, verdict, int(not report.is_valid),
                       residuals=_residual_json(report))
    status = 0
    if args.subcommand == "infinitesimal":
        theta, is_cocycle = infinitesimal(dm)
        artifacts = {"triple": jsonio.triple_to_json(theta), "cocycle": is_cocycle}
        verdict = {"valid": True, "cocycle": is_cocycle}
        status = int(not is_cocycle)
    elif args.subcommand == "obstruction":
        ob = obstruction(dm)
        tc = triple_complex(dm.base_morphism)
        artifacts = {"triple": jsonio.triple_to_json(ob), "cocycle": tc.is_cocycle(ob)}
        verdict = {"valid": True, "order": dm.order}
    elif args.subcommand == "extend":
        witness = extend_order(dm)
        if witness is None:
            verdict = {
                "valid": True,
                "extendable": False,
                "note": "the obstruction class is nonzero; extension is "
                "guaranteed only when H^3 of the morphism complex vanishes",
            }
            artifacts = {"witness": None}
            status = 1
        else:
            extended = extend_deformation(dm, witness)
            revalidated = validate_deformation(extended).is_valid
            verdict = {"valid": True, "extendable": True, "revalidated": revalidated}
            artifacts = {
                "witness": jsonio.triple_to_json(witness),
                "extended": deformation_to_json(extended),
            }
            status = int(not revalidated)
    else:  # transform
        transformed = apply_automorphism(dm, psi_n, psi_t)
        revalidated = validate_deformation(transformed).is_valid
        verdict = {"valid": True, "revalidated": revalidated}
        artifacts = {"deformation": deformation_to_json(transformed)}
        status = int(not revalidated)
    out = _report(argv, paths, verdict, status, artifacts=artifacts)
    if args.emit:
        Path(args.emit).write_text(dump_json(artifacts))
    return out


def _int_at_least(low: int, message: str, text: str) -> int:
    """An argparse int type: ``message`` names the value when it is below ``low``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(message.format(value))
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nliecoh",
        description="Exact-arithmetic cohomology and deformation tools for "
        "n-ary skew bracket algebras and their morphisms.",
    )
    parser.add_argument(
        "--output", choices=("text", "json"), default="text", help="report rendering"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    degree = partial(_int_at_least, 1, "report degree must be at least 1, got {}")

    p = sub.add_parser("validate", help="validate an algebra/morphism/deformation file")
    p.add_argument("path")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("cohomology", help="cohomology of an algebra or of a module map")
    p.add_argument("--algebra", help="algebra file (self-valued complex)")
    p.add_argument("--module", help="target algebra file (module-valued complex)")
    p.add_argument("--morphism", help="morphism file defining the module structure")
    p.add_argument("--degree", type=degree, required=True, help="report degree r >= 1")
    p.add_argument("--basis", action="store_true", help="include representative bases")
    p.set_defaults(handler=cmd_cohomology)

    p = sub.add_parser("morphism-cohomology", help="cohomology of the morphism complex")
    p.add_argument("--morphism", required=True)
    p.add_argument("--degree", type=degree, required=True, help="report degree r >= 1")
    p.add_argument("--basis", action="store_true")
    p.set_defaults(handler=cmd_cohomology, algebra=None, module=None)

    p = sub.add_parser("deform", help="deformation tools")
    p.add_argument("subcommand", choices=("check", "infinitesimal", "obstruction", "extend", "transform"))
    p.add_argument("deformation", help="deformation file")
    p.add_argument("--order", type=partial(_int_at_least, 0, "order must be nonnegative, got {}"),
                   help="truncate to this order first")
    p.add_argument("--psi-source", help="automorphism series file for the source")
    p.add_argument("--psi-target", help="automorphism series file for the target")
    p.add_argument("--emit", help="write the main artifact JSON to this path")
    p.set_defaults(handler=cmd_deform)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cohomology" and not (args.algebra or args.morphism):
        parser.error("cohomology needs --algebra or --morphism")
    if args.command == "deform" and args.subcommand == "transform":
        if not (args.psi_source and args.psi_target):
            parser.error("transform needs --psi-source and --psi-target")
    try:  # rendered here too: a number too long to write fails only when written
        report, status = args.handler(args, argv)
        text = _render(report, args.output)
    except (NliecohError, OSError) as exc:
        status = 2 if isinstance(exc, (ParseError, OSError)) else 1
        text = _render({"command": argv, "error": str(exc), "status": status}, args.output)
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
