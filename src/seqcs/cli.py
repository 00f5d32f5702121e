"""Command-line surface: analysis, certificates, reductions, covers, norm checks.

Every command embeds its full run configuration (including seeds, tolerances
and size guards) in the report, so any emitted report can be reproduced
bit-for-bit by re-running the embedded config.  Exit codes: 0 success/pass,
1 negative-but-valid result (infeasible, none found, verification fail,
inequality violation), 2 input error.

JSON reports are written by `_json_text`, which gives the same bytes as
`json.dumps(report, indent=1)` but joins each flat list of plain ints (the
forms and index lists that make up most of a reduction chain) in one
`str.join`.  Plain ints and finite floats are written by their `repr`, as
`json` writes them; every other scalar (strings, bools, None, NaN and
±Infinity, subclasses) is encoded by `json.dumps` itself.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, complexity, covering, phi_km, reduction, systems
from .covering import SearchGuardExceeded

TOL_INEQUALITY = 1e-9


def _json_text(obj, level: int = 0) -> str:
    """`json.dumps(obj, indent=1)`, byte for byte, at nesting depth `level`."""
    pad = "\n" + " " * level
    inner = pad + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:  # plain ints only: bools and int subclasses go item by item
            items = map(int.__repr__, obj)
        else:
            items = (_json_text(x, level + 1) for x in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:  # json's own key coercion; its output has no raw newlines
            return json.dumps(obj, indent=1).replace("\n", pad)
        items = (json.dumps(k) + ": " + _json_text(v, level + 1) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if type(obj) is int or (type(obj) is float and math.isfinite(obj)):
        return obj.__repr__()  # as json writes them, without its per-call set-up
    return json.dumps(obj)


def _emit(report: dict, args) -> None:
    if args.output == "json":
        text = _json_text(report)
    else:
        lines: list[str] = []

        def nested(val) -> bool:
            return isinstance(val, dict) or (
                isinstance(val, list) and any(isinstance(x, (dict, list)) for x in val)
            )

        def render(obj, indent=0):
            pad = "  " * indent
            if isinstance(obj, dict):
                for key, val in obj.items():
                    if nested(val):
                        lines.append(f"{pad}{key}:")
                        render(val, indent + 1)
                    else:
                        lines.append(f"{pad}{key}: {val}")
            elif isinstance(obj, list):
                for idx, val in enumerate(obj):
                    if nested(val):
                        lines.append(f"{pad}- [{idx}]")
                        render(val, indent + 1)
                    else:
                        lines.append(f"{pad}- {val}")

        render(report)
        text = "\n".join(lines)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _config(args) -> dict:
    """Every flag and positional of the run by its dest name, in parser order.

    Only where the report goes (`--output`, `--out`) is left out.
    """
    return {key: val for key, val in vars(args).items() if key not in ("output", "out", "func")}


def _checked_at(at: int, system) -> int:
    if not 0 <= at < system.r:
        raise systems.InputValidationError([f"--at {at}: valid form indices are 0..{system.r - 1}"])
    return at


def cmd_analyze(args) -> int:
    system = systems.load_system(args.system)
    flags = systems.system_flags(system)
    normalized = systems.normalize_translation_invariant(system)
    report = {
        "config": _config(args),
        "p": int(system.p),
        "r": system.r,
        "d": system.d,
        "flags": flags,
        "translation_invariant": normalized is not None,
    }
    if normalized is not None:
        points = systems.AssociatedSet.from_normalized(normalized[0])
        report["associated_set"] = [list(pt) for pt in points.points]
    comp = complexity.complexity_report(system, args.k_max, args.node_guard)
    report["complexity"] = comp.to_json()
    _emit(report, args)
    return 0


def cmd_witness(args) -> int:
    system = systems.load_system(args.system)
    targets = list(range(system.r)) if args.at is None else [_checked_at(args.at, system)]
    results = []
    missing = 0
    for i in targets:
        cert = complexity.sequential_witness(system, i, args.k, args.max_len, args.node_guard)
        if cert is None:
            missing += 1
            results.append({"i": i, "found": False})
        else:
            results.append({"i": i, "found": True, "length": cert.length, "certificate": cert.to_json()})
    report = {
        "config": _config(args),
        "results": results,
        "all_found": missing == 0,
    }
    _emit(report, args)
    return 0 if missing == 0 else 1


def cmd_verify(args) -> int:
    system = systems.load_system(args.system)
    cert = complexity.WitnessCertificate.load(args.certificate)
    result = complexity.verify_witness(system, cert)
    verdict = result.to_json()
    if not cert.system_hash:
        verdict["unbound"] = True  # no hash: nothing tied the certificate to this system
    report = {
        "config": _config(args),
        "verdict": verdict,
    }
    _emit(report, args)
    return 0 if result.passed else 1


def cmd_reduce(args) -> int:
    analysis.check_tolerance(args.tolerance)
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    analysis.check_trials(args.trials, args.seed)
    system = systems.load_system(args.system)
    cert = complexity.WitnessCertificate.load(args.witness)
    head = {"config": _config(args)}
    if not cert.system_hash:
        head["unbound"] = True  # no hash: nothing tied the witness to this system
    try:
        chain = reduction.build_chain(system, cert, max_forms=args.max_forms)
    except reduction.InvalidWitness as exc:
        _emit({**head, "error": str(exc)}, args)
        return 1
    except reduction.ConsistencyAlarm as exc:
        _emit({**head, "alarm": str(exc)}, args)
        print(exc, file=sys.stderr)
        return 1
    report = {
        **head,
        "steps": len(chain.steps),
        "truncated": chain.truncated,
        "final_forms": chain.final_system.r,
        "final_variables": chain.final_system.d,
        "chain": chain.to_json(),
    }
    violation = None
    if args.numeric_check and chain.steps:
        checked, skipped = [], []
        for idx, step in enumerate(chain.steps):
            try:
                v = reduction.numeric_step_check(
                    step, args.n, trials=args.trials, seed=args.seed, point_guard=args.point_guard
                )
            except analysis.EnumerationGuardExceeded as exc:
                skipped.append({"step": idx, "reason": str(exc)})
                continue
            checked.append({"step": idx, "violation": v})
        if checked:
            violation = max(c["violation"] for c in checked)
            report["numeric_checks"] = checked
            report["numeric_max_violation"] = violation
        if skipped:
            report["numeric_skipped"] = skipped
    _emit(report, args)
    if chain.truncated:
        return 1
    if violation is not None and violation > args.tolerance:
        return 1
    return 0


def cmd_gvn(args) -> int:
    system = systems.load_system(args.system)
    if args.at_origin:
        origin = (1,) + (0,) * (system.d - 1)
        if origin not in system.forms:
            raise systems.InputValidationError(["no form equals (1, 0, ..., 0); cannot use --at-origin"])
        i = system.forms.index(origin)
    else:
        i = _checked_at(args.at, system)
    tables = None
    if args.family == "counterexample":
        if args.phi_k is None or args.phi_m is None:
            raise systems.InputValidationError(["--family counterexample needs --phi-k and --phi-M"])
        if args.ell_family < 1:
            raise ValueError(f"--ell-family must be >= 1, got {args.ell_family}")
        w = tuple(int(x) for x in args.w.split(",")) if args.w else None
        try:
            tables = phi_km.counterexample_family(int(system.p), args.phi_k, args.phi_m, w, args.ell_family)
        except analysis.EnumerationGuardExceeded as exc:  # the product-table guard, which names its level ell
            detail = str(exc).removeprefix(f"ell = {args.ell_family}: ")
            raise analysis.EnumerationGuardExceeded(f"--ell-family {args.ell_family}: {detail}") from None
    report_obj = analysis.gvn_check(
        system,
        i,
        args.k,
        args.ell,
        args.n,
        family=args.family,
        trials=args.trials,
        seed=args.seed,
        tables=tables,
        tol=args.tolerance,
        point_guard=args.point_guard,
    )
    report = {
        "config": _config(args),
        "report": report_obj.to_json(),
    }
    _emit(report, args)
    return 0 if report_obj.passed else 1


def cmd_phikm(args) -> int:
    system = phi_km.phi_system(args.p, args.k, args.M)
    points = phi_km.s_km_points(args.p, args.k, args.M)
    report = {
        "config": _config(args),
        "p": args.p,
        "forms": system.r,
        "points": [list(z) for z in points],
        "system": system.to_json(),
    }
    exit_code = 0
    if args.system_out:
        with open(args.system_out, "w", encoding="utf-8") as fh:
            json.dump(system.to_json(), fh)
        report["system_written"] = args.system_out
    if args.witness:
        at = tuple(int(x) for x in args.at.split(",")) if args.at else None
        sequence, covers = phi_km.phi_witness(args.p, args.k, args.M)
        cert = phi_km.phi_witness_certificate(args.p, args.k, args.M, at)
        report["witness"] = {
            "length": cert.length,
            "sequence_points": [list(z) for z in sequence[: cert.length]],
            "certificate": cert.to_json(),
            "geometric_covers": [
                [s.to_json() for s in cover] for cover in covers[: cert.length]
            ],
        }
        if args.cert_out:
            with open(args.cert_out, "w", encoding="utf-8") as fh:
                json.dump(cert.to_json(), fh)
            report["certificate_written"] = args.cert_out
        if args.verify:
            verdict = complexity.verify_witness(system, cert)
            report["witness"]["verified"] = verdict.passed
            if not verdict.passed:
                report["witness"]["failures"] = verdict.failures
                exit_code = 1
    _emit(report, args)
    return exit_code


def cmd_cover(args) -> int:
    if args.points and (args.phikm_origin or (args.p, args.k, args.M) != (None, None, None)):
        raise systems.InputValidationError(
            ["a point-set file gives p and M itself; it takes none of --phikm-origin, --p, --k, --M"]
        )
    if args.phikm_origin:
        if args.p is None or args.k is None or args.M is None:
            raise systems.InputValidationError(["--phikm-origin needs --p, --k, --M"])
        desc = phi_km.PhiDescriptor.make(args.p, args.k, args.M)
        p, m = desc.p, desc.M
        origin = (0,) * m
        points = [z for z in phi_km.s_km_points(p, desc.k, m) if z != origin]
        excluded = [origin]
    elif args.points:
        with open(args.points, "r", encoding="utf-8") as fh:
            p, m, points, excluded = covering.point_set_from_json(json.load(fh))
    else:
        raise systems.InputValidationError(["give a point-set file or --phikm-origin"])
    result = covering.min_cover_excluding(
        p, m, points, excluded, mode=args.mode, max_count=args.max_count, node_guard=args.node_guard
    )
    report = {"config": _config(args)}
    if result is None:
        report["feasible"] = False
        _emit(report, args)
        return 1
    count, cover = result
    verdict = covering.verify_cover(cover)
    report.update({"feasible": True, "minimum": count, "cover": cover.to_json(), "verified": verdict["passed"]})
    _emit(report, args)
    return 0 if verdict["passed"] else 1


def cmd_gowers(args) -> int:
    with open(args.function, "r", encoding="utf-8") as fh:
        table = analysis.FunctionTable.from_json(json.load(fh))
    value = analysis.gowers_norm(table, args.k, args.point_guard)
    report = {
        "config": _config(args),
        "norm": value,
    }
    if args.direct:
        report["direct"] = analysis.gowers_norm_direct(table, args.k, args.point_guard)
        report["difference"] = abs(report["direct"] - value)
    _emit(report, args)
    return 0


def _add_common(sub):
    sub.add_argument("--output", choices=("json", "table"), default="json")
    sub.add_argument("--out", help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqcs", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("analyze", help="validate a system and report its complexity data")
    sp.add_argument("system")
    sp.add_argument("--k-max", type=int, default=6)
    sp.add_argument("--node-guard", type=int, default=covering.NODE_GUARD)
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = subs.add_parser("witness", help="search witness sequences with covers")
    sp.add_argument("system")
    sp.add_argument("--at", type=int, default=None, help="target form index (default: all)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--max-len", type=int, default=4)
    sp.add_argument("--node-guard", type=int, default=covering.NODE_GUARD)
    _add_common(sp)
    sp.set_defaults(func=cmd_witness)

    sp = subs.add_parser("verify", help="re-check a witness certificate against a system")
    sp.add_argument("certificate")
    sp.add_argument("system")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("reduce", help="build the full reduction chain from a witness")
    sp.add_argument("system")
    sp.add_argument("--witness", required=True)
    sp.add_argument("--max-forms", type=int, default=reduction.MAX_FORMS)
    sp.add_argument("--numeric-check", action="store_true")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", dest="tolerance", type=float, default=TOL_INEQUALITY)
    sp.add_argument("--point-guard", type=int, default=analysis.DEFAULT_POINT_GUARD)
    _add_common(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = subs.add_parser("gvn", help="check the norm inequality on random or fixed tuples")
    sp.add_argument("--system", required=True)
    where = sp.add_mutually_exclusive_group(required=True)
    where.add_argument("--at", type=int, default=None)
    where.add_argument("--at-origin", action="store_true")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--family",
        default="random",
        choices=("random", *analysis.TABLE_FAMILIES, "counterexample"),
    )
    sp.add_argument("--phi-k", type=int, default=None)
    sp.add_argument("--phi-M", dest="phi_m", type=int, default=None)
    sp.add_argument("--w", default=None, help="comma-separated weight for the counterexample family")
    sp.add_argument("--ell-family", type=int, default=1, help="tensor level of the counterexample family")
    sp.add_argument("--tol", dest="tolerance", type=float, default=TOL_INEQUALITY)
    sp.add_argument("--point-guard", type=int, default=analysis.DEFAULT_POINT_GUARD)
    _add_common(sp)
    sp.set_defaults(func=cmd_gvn)

    sp = subs.add_parser("phikm", help="emit progression systems, witnesses and covers")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--witness", action="store_true")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--at", default=None, help="comma-separated point to end the witness at")
    sp.add_argument("--system-out", default=None)
    sp.add_argument("--cert-out", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_phikm)

    sp = subs.add_parser("cover", help="minimum affine covers excluding points")
    sp.add_argument("points", nargs="?", default=None)
    sp.add_argument("--phikm-origin", action="store_true")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--M", type=int, default=None)
    sp.add_argument(
        "--hyperplanes-only", dest="mode", action="store_const", const="hyperplanes-only", default="affine-spans"
    )
    sp.add_argument("--max-count", type=int, default=None)
    sp.add_argument("--node-guard", type=int, default=covering.NODE_GUARD)
    _add_common(sp)
    sp.set_defaults(func=cmd_cover)

    sp = subs.add_parser("gowers", help="uniformity norm of a function table")
    sp.add_argument("function")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--direct", action="store_true", help="also run the direct-definition oracle")
    sp.add_argument("--point-guard", type=int, default=analysis.DEFAULT_POINT_GUARD)
    _add_common(sp)
    sp.set_defaults(func=cmd_gowers)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (systems.InputValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, analysis.EnumerationGuardExceeded, SearchGuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
