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
from .cochains import Cochain, CochainSpace, CohomologyReport, module_cohomology, self_cohomology
from .deformations import (
    apply_automorphism,
    extend_deformation,
    extend_order,
    infinitesimal,
    obstruction,
    validate_deformation,
)
from .errors import NliecohError, ParseError
from .jsonio import (
    cochain_to_json,
    deformation_to_json,
    dump_json,
    file_digest,
    format_rational,
    triple_to_json,
)
from .morphisms import morphism_cohomology, triple_complex, validate_morphism


def _digest_inputs(paths: Sequence[str]) -> dict:
    return {p: file_digest(p) for p in paths}


def _residual_json(failures) -> list:
    out = []
    for f in failures:
        entry = {}
        if hasattr(f, "part"):
            entry["part"] = f.part
            entry["order"] = f.order
            entry["key"] = _key_json(f.key)
        elif hasattr(f, "x_tuple"):
            entry["x_tuple"] = [i + 1 for i in f.x_tuple]
            entry["y_tuple"] = [i + 1 for i in f.y_tuple]
        else:
            entry["bracket_tuple"] = [i + 1 for i in f.bracket_tuple]
        entry["residual"] = [format_rational(c) for c in f.residual]
        out.append(entry)
    return out


def _key_json(key):
    if isinstance(key, int):
        return [key + 1]
    return [[i + 1 for i in part] for part in key]


def _print_report(report: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(dump_json(report))
        return
    for line in _text_lines(report):
        print(line)


def _text_lines(report: dict) -> list[str]:
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
    return lines


def _cohomology_dimensions(rep: CohomologyReport, r: int) -> dict:
    return {
        f"dim Z^{r}": rep.dim_z,
        f"dim B^{r}": rep.dim_b,
        f"dim H^{r}": rep.dim_h,
    }


def cmd_validate(args, argv: list[str]) -> tuple[dict, int]:
    obj = jsonio.load_json(args.path)
    kind = jsonio.detect_kind(obj)
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
    status = 0 if report.is_valid else 1
    out = {
        "command": argv,
        "inputs": _digest_inputs([args.path]),
        "verdict": {"kind": kind, "valid": report.is_valid},
        "residuals": _residual_json(report.failures),
        "status": status,
    }
    return out, status


def _basis_artifacts(rep: CohomologyReport, unflatten, to_json) -> dict:
    """The report's sparse cocycle and representative rows, read as cochains."""
    return {
        "cocycle_basis": [to_json(unflatten(v)) for v in rep.cocycles.data],
        "representatives": [to_json(unflatten(v)) for v in rep.classes.data],
    }


def cmd_cohomology(args, argv: list[str]) -> tuple[dict, int]:
    paths = [args.algebra] if args.algebra else []
    for extra in (args.module, args.morphism):
        if extra:
            paths.append(extra)
    if args.morphism:
        phi = jsonio.load_morphism(args.morphism)
        if args.algebra:
            declared = jsonio.load_algebra(args.algebra)
            if declared != phi.source:
                raise ParseError("--algebra disagrees with the morphism's source")
        if args.module:
            declared = jsonio.load_algebra(args.module)
            if declared != phi.target:
                raise ParseError("--module disagrees with the morphism's target")
        if not phi.is_valid:
            out = {
                "command": argv,
                "inputs": _digest_inputs(paths),
                "verdict": {"valid": False, "reason": "morphism fails validation"},
                "residuals": _residual_json(validate_morphism(phi).failures),
                "status": 1,
            }
            return out, 1
        rep = module_cohomology(phi.source, phi.target, phi, args.degree)
        space = CochainSpace(phi.source, args.degree - 1, phi.target.dim)
    else:
        if args.module:
            raise ParseError("--module requires --morphism")
        alg = jsonio.load_algebra(args.algebra)
        if not alg.is_valid:
            out = {
                "command": argv,
                "inputs": _digest_inputs(paths),
                "verdict": {"valid": False, "reason": "algebra fails validation"},
                "residuals": _residual_json(alg._report.failures),
                "status": 1,
            }
            return out, 1
        rep = self_cohomology(alg, args.degree)
        space = CochainSpace(alg, args.degree - 1, alg.dim)
    out = {
        "command": argv,
        "inputs": _digest_inputs(paths),
        "verdict": {"valid": True},
        "dimensions": _cohomology_dimensions(rep, args.degree),
        "status": 0,
    }
    if args.basis:
        out["bases"] = _basis_artifacts(rep, partial(Cochain.from_flat, space), cochain_to_json)
    return out, 0


def cmd_morphism_cohomology(args, argv: list[str]) -> tuple[dict, int]:
    phi = jsonio.load_morphism(args.morphism)
    if not phi.is_valid:
        out = {
            "command": argv,
            "inputs": _digest_inputs([args.morphism]),
            "verdict": {"valid": False, "reason": "morphism fails validation"},
            "residuals": _residual_json(validate_morphism(phi).failures),
            "status": 1,
        }
        return out, 1
    rep = morphism_cohomology(phi, args.degree)
    out = {
        "command": argv,
        "inputs": _digest_inputs([args.morphism]),
        "verdict": {"valid": True},
        "dimensions": _cohomology_dimensions(rep, args.degree),
        "status": 0,
    }
    if args.basis:
        unflatten = partial(triple_complex(phi).unvectorize, args.degree - 1)
        out["bases"] = _basis_artifacts(rep, unflatten, triple_to_json)
    return out, 0


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
    report = dm.report
    inputs = _digest_inputs(paths)
    if args.subcommand == "check":
        status = 0 if report.is_valid else 1
        out = {
            "command": argv,
            "inputs": inputs,
            "verdict": {"valid": report.is_valid, "order": dm.order},
            "residuals": _residual_json(report.failures),
            "status": status,
        }
        return out, status
    if not report.is_valid:
        out = {
            "command": argv,
            "inputs": inputs,
            "verdict": {"valid": False, "order": dm.order},
            "residuals": _residual_json(report.failures),
            "status": 1,
        }
        return out, 1
    artifacts: dict = {}
    status = 0
    if args.subcommand == "infinitesimal":
        theta, is_cocycle = infinitesimal(dm)
        artifacts = {"triple": triple_to_json(theta), "cocycle": is_cocycle}
        verdict = {"valid": True, "cocycle": is_cocycle}
        status = 0 if is_cocycle else 1
    elif args.subcommand == "obstruction":
        ob = obstruction(dm)
        tc = triple_complex(dm.base_morphism)
        artifacts = {"triple": triple_to_json(ob), "cocycle": tc.is_cocycle(ob)}
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
                "witness": triple_to_json(witness),
                "extended": deformation_to_json(extended),
            }
            status = 0 if revalidated else 1
    else:  # transform
        transformed = apply_automorphism(dm, psi_n, psi_t)
        revalidated = validate_deformation(transformed).is_valid
        verdict = {"valid": True, "revalidated": revalidated}
        artifacts = {"deformation": deformation_to_json(transformed)}
        status = 0 if revalidated else 1
    out = {
        "command": argv,
        "inputs": inputs,
        "verdict": verdict,
        "artifacts": artifacts,
        "status": status,
    }
    if args.emit:
        Path(args.emit).write_text(dump_json(artifacts))
    return out, status


def _report_degree(text: str) -> int:
    try:
        r = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if r < 1:
        raise argparse.ArgumentTypeError(f"report degree must be at least 1, got {r}")
    return r


def _truncation_order(text: str) -> int:
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if order < 0:
        raise argparse.ArgumentTypeError(f"order must be nonnegative, got {order}")
    return order


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

    p = sub.add_parser("validate", help="validate an algebra/morphism/deformation file")
    p.add_argument("path")

    p = sub.add_parser("cohomology", help="cohomology of an algebra or of a module map")
    p.add_argument("--algebra", help="algebra file (self-valued complex)")
    p.add_argument("--module", help="target algebra file (module-valued complex)")
    p.add_argument("--morphism", help="morphism file defining the module structure")
    p.add_argument("--degree", type=_report_degree, required=True, help="report degree r >= 1")
    p.add_argument("--basis", action="store_true", help="include representative bases")

    p = sub.add_parser("morphism-cohomology", help="cohomology of the morphism complex")
    p.add_argument("--morphism", required=True)
    p.add_argument("--degree", type=_report_degree, required=True, help="report degree r >= 1")
    p.add_argument("--basis", action="store_true")

    p = sub.add_parser("deform", help="deformation tools")
    p.add_argument("subcommand", choices=("check", "infinitesimal", "obstruction", "extend", "transform"))
    p.add_argument("deformation", help="deformation file")
    p.add_argument("--order", type=_truncation_order, help="truncate to this order first")
    p.add_argument("--psi-source", help="automorphism series file for the source")
    p.add_argument("--psi-target", help="automorphism series file for the target")
    p.add_argument("--emit", help="write the main artifact JSON to this path")
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
    try:
        if args.command == "validate":
            report, status = cmd_validate(args, argv)
        elif args.command == "cohomology":
            report, status = cmd_cohomology(args, argv)
        elif args.command == "morphism-cohomology":
            report, status = cmd_morphism_cohomology(args, argv)
        else:
            report, status = cmd_deform(args, argv)
    except (ParseError, OSError) as exc:
        _print_report({"command": argv, "error": str(exc), "status": 2}, args.output)
        return 2
    except NliecohError as exc:
        _print_report({"command": argv, "error": str(exc), "status": 1}, args.output)
        return 1
    _print_report(report, args.output)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
