"""Command-line surface: analysis, certificates, reductions, covers, norm checks.

Each `cmd_*` returns its report body and exit code; `main` alone writes the
report, with the full run configuration (including seeds, tolerances and size
guards) first under `config`, so any emitted report can be reproduced
bit-for-bit by re-running the embedded config.  Exit codes: 0 success/pass,
1 negative-but-valid result (infeasible, none found, verification fail,
inequality violation), 2 input error, or an output closed before the report
was written (stdout piped into `head`), when part of the report may already
have gone out.  A run that exits 0 or 1 writes exactly one report; any other
run that exits 2 writes none, and every run that exits 2 says why on stderr.
A command with side files (`phikm --system-out/--cert-out`) returns them as a
third item, path to JSON object; `main` checks their paths first and writes
them only after the report, so a run whose report fails leaves none behind.

`main(argv)` may be called repeatedly in one process.  It builds its parser
once, on the first call, and reuses it: parsing makes a fresh namespace per
call and every default is an immutable scalar, so nothing carries from one
call to the next.  The flag defaults (the `covering`, `analysis` and
`reduction` guards) and the `cmd_*` each subcommand calls are read at that
first build.

JSON reports are written by `_json_chunks` in one layout: the text of
`json.dumps(report, indent=1)`, except that each scalar row, a nonempty list
whose items all have exact type int, bool, float or NoneType (an index list,
a slot pair, a form, a row of a transform), is its compact `json` text on one
line.  So a matrix is one row per line.  A system's forms
(`systems.FormRows`) are written from the row blocks the system encoded once
for its digest.  A report written with `--out` is streamed to the file piece
by piece and is never held whole (its first 64 K characters, a small report
whole, are made before the file is opened), and stdout gets the joined pieces
(`_json_text`).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys

from . import analysis, complexity, covering, field, phi_km, reduction, systems
from .covering import SearchGuardExceeded

TOL_INEQUALITY = 1e-9
_HEAD_CHARS = 1 << 16


def _json_scalar(obj) -> str:
    """One JSON scalar as `json.dumps` writes it."""
    if type(obj) is int or (type(obj) is float and math.isfinite(obj)):
        return obj.__repr__()  # as json writes them, without its per-call set-up
    return json.dumps(obj)


_ROW_SCALARS = frozenset((int, bool, float, type(None)))


def _json_chunks(obj, level: int = 0):
    """The report layout of `obj` at nesting depth `level`, in pieces.

    A scalar row is one piece; a system's forms (`systems.FormRows`) are one
    piece per row block the system already encoded, one row per line.  Any
    other container is written child by child, dict keys coerced as `json`
    coerces them.
    """
    pad = "\n" + " " * level
    inner = pad + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
        elif type(obj) is systems.FormRows:
            head = "["
            for block in obj.blocks:  # each `],[` in a block of int rows is a row boundary
                yield head + inner + block.replace("],[", "]," + inner + "[")
                head = ","
            yield pad + "]"
        elif set(map(type, obj)) <= _ROW_SCALARS:
            yield systems.compact_json(obj)
        else:
            head = "["
            for x in obj:
                yield head + inner
                yield from _json_chunks(x, level + 1)
                head = ","
            yield pad + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
        else:
            head = "{"
            for k, v in obj.items():
                # a key that is not a string: its text in `json`'s own coercion, out of `{"<key>": 0}`
                yield head + inner + (json.dumps(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]) + ": "
                yield from _json_chunks(v, level + 1)
                head = ","
            yield pad + "}"
    else:
        yield _json_scalar(obj)


def _json_text(obj, level: int = 0) -> str:
    """The report layout of `obj` at nesting depth `level`, as one string."""
    return "".join(_json_chunks(obj, level))


def _emit(report: dict, args) -> None:
    if args.output == "json":
        if getattr(args, "out", None):
            # the pieces of the first _HEAD_CHARS characters, a small report whole, are made before the file
            # is opened: making them with the file open measured slower; the rest is streamed
            pieces, head, held = _json_chunks(report), [], 0
            for piece in pieces:
                head.append(piece)
                held += len(piece)
                if held >= _HEAD_CHARS:
                    break
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("".join(head))
                fh.writelines(pieces)
                fh.write("\n")
            return
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


def _check_writable(path: str) -> None:
    """Raise the OSError that opening `path` for writing would raise when it
    is a directory or its directory is missing, without creating anything."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _config(args) -> dict:
    """Every flag and positional of the run by its dest name, in parser order.

    Only where the report goes (`--output`, `--out`) is left out.
    """
    return {key: val for key, val in vars(args).items() if key not in ("output", "out", "func")}


def _check_guard(flag: str, value: int) -> None:
    """A size guard must allow at least one node or point."""
    if value < 1:
        raise ValueError(f"{flag} {value}: must be >= 1")


def _int_tuple(flag: str, text: str | None) -> tuple[int, ...] | None:
    """The comma-separated integers of a flag's value; None when it is absent or empty."""
    if not text:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} {text}: expected comma-separated integers") from None


def _checked_at(at: int, system) -> int:
    if not 0 <= at < system.r:
        raise systems.InputValidationError([f"--at {at}: valid form indices are 0..{system.r - 1}"])
    return at


def cmd_analyze(args) -> tuple[dict, int]:
    _check_guard("--node-guard", args.node_guard)
    system = systems.load_system(args.system)
    flags = systems.system_flags(system)
    normalized = systems.normalize_translation_invariant(system)
    report = {
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
    return report, 0


def cmd_witness(args) -> tuple[dict, int]:
    _check_guard("--node-guard", args.node_guard)
    system = systems.load_system(args.system)
    targets = list(range(system.r)) if args.at is None else [_checked_at(args.at, system)]
    results = []
    for i in targets:
        cert = complexity.sequential_witness(system, i, args.k, args.max_len, args.node_guard)
        if cert is None:
            results.append({"i": i, "found": False})
        else:
            results.append({"i": i, "found": True, "length": cert.length, "certificate": cert.to_json()})
    all_found = all(res["found"] for res in results)
    return {"results": results, "all_found": all_found}, 0 if all_found else 1


def cmd_verify(args) -> tuple[dict, int]:
    system = systems.load_system(args.system)
    cert = complexity.WitnessCertificate.load(args.certificate)
    result = complexity.verify_witness(system, cert)
    verdict = result.to_json()
    if not cert.system_hash:
        verdict["unbound"] = True  # no hash: nothing tied the certificate to this system
    return {"verdict": verdict}, 0 if result.passed else 1


def cmd_reduce(args) -> tuple[dict, int]:
    analysis.check_tolerance(args.tolerance)
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    analysis.check_trials(args.trials, args.seed)
    _check_guard("--point-guard", args.point_guard)
    system = systems.load_system(args.system)
    cert = complexity.WitnessCertificate.load(args.witness)
    head = {} if cert.system_hash else {"unbound": True}  # no hash: nothing tied the witness to this system
    try:
        chain = reduction.build_chain(system, cert, max_forms=args.max_forms)
    except reduction.InvalidWitness as exc:
        return {**head, "error": str(exc)}, 1
    except reduction.ConsistencyAlarm as exc:
        print(exc, file=sys.stderr)
        return {**head, "alarm": str(exc)}, 1
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
    failed = chain.truncated or (violation is not None and violation > args.tolerance)
    return report, 1 if failed else 0


def cmd_gvn(args) -> tuple[dict, int]:
    if args.k + 1 > analysis.UK_CAP:  # the check takes U^(k+1) norms
        raise analysis.EnumerationGuardExceeded(f"--k {args.k}: U^{args.k + 1} above cap U^{analysis.UK_CAP}")
    _check_guard("--point-guard", args.point_guard)
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
        w = _int_tuple("--w", args.w)
        # the average depends only on the column span of the forms: the family is exact on a system
        # whose form matrix spans the same columns as phi's, row for row
        phi = phi_km.phi_system(int(system.p), args.phi_k, args.phi_m)
        joined = [a + b for a, b in zip(phi.forms, system.forms)]
        if system.r != phi.r or len({field.rank(rows, phi.p) for rows in (phi.forms, system.forms, joined)}) > 1:
            raise systems.InputValidationError([
                f"--phi-k {args.phi_k} --phi-M {args.phi_m}: the system is not phi({phi.p}, {args.phi_k}, "
                f"{args.phi_m}) up to a change of variables, with its forms in s_km_points order"
            ])
        if args.n != args.phi_m * args.ell_family:  # the tables live on F_p^(M·ell)
            raise ValueError(
                f"--n {args.n}: --family counterexample needs --n = --phi-M × --ell-family"
                f" = {args.phi_m} × {args.ell_family} = {args.phi_m * args.ell_family}"
            )
        try:
            tables = phi_km.counterexample_family(
                int(system.p), args.phi_k, args.phi_m, w, args.ell_family, points=[f[1:] for f in phi.forms]
            )
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
    return {"report": report_obj.to_json()}, 0 if report_obj.passed else 1


def cmd_phikm(args) -> tuple[dict, int, dict]:
    stray = [flag for flag, val in (("--verify", args.verify), ("--at", args.at), ("--cert-out", args.cert_out))
             if not args.witness and val not in (None, False)]
    if stray:
        raise systems.InputValidationError([f"{flag} needs --witness" for flag in stray])
    system = phi_km.phi_system(args.p, args.k, args.M)
    report = {
        "p": args.p,
        "forms": system.r,
        "points": [list(form[1:]) for form in system.forms],
        "system": system.to_json(),
    }
    exit_code = 0
    side_files = {}
    if args.system_out:
        side_files[args.system_out] = system.to_json()
        report["system_written"] = args.system_out
    if args.witness:
        at = _int_tuple("--at", args.at)
        sequence, covers, cert = phi_km._witness_at(system, at)
        report["witness"] = {
            "length": cert.length,
            "sequence_points": [list(z) for z in sequence],
            "certificate": cert.to_json(),
            "geometric_covers": [[s.to_json() for s in cover] for cover in covers],
        }
        if args.cert_out:
            side_files[args.cert_out] = cert.to_json()
            report["certificate_written"] = args.cert_out
        if args.verify:
            verdict = complexity.verify_witness(system, cert)
            report["witness"]["verified"] = verdict.passed
            if not verdict.passed:
                report["witness"]["failures"] = verdict.failures
                exit_code = 1
    return report, exit_code, side_files


def cmd_cover(args) -> tuple[dict, int]:
    _check_guard("--node-guard", args.node_guard)
    if args.points and (args.phikm_origin or (args.p, args.k, args.M) != (None, None, None)):
        raise systems.InputValidationError(
            ["a point-set file gives p and M itself; it takes none of --phikm-origin, --p, --k, --M"]
        )
    if args.phikm_origin:
        if args.p is None or args.k is None or args.M is None:
            raise systems.InputValidationError(["--phikm-origin needs --p, --k, --M"])
        p, k, m = phi_km._parameters(args.p, args.k, args.M)
        origin = (0,) * m
        points = [z for z in phi_km.s_km_points(p, k, m) if z != origin]
        excluded = [origin]
    elif args.points:
        p, m, points, excluded = systems.read_json(args.points, covering.point_set_from_json)
    else:
        raise systems.InputValidationError(["give a point-set file or --phikm-origin"])
    result = covering.min_cover_excluding(
        p, m, points, excluded, mode=args.mode, max_count=args.max_count, node_guard=args.node_guard
    )
    if result is None:
        return {"feasible": False}, 1
    count, cover = result
    verdict = covering.verify_cover(cover)
    report = {"feasible": True, "minimum": count, "cover": cover.to_json(), "verified": verdict["passed"]}
    return report, 0 if verdict["passed"] else 1


def cmd_gowers(args) -> tuple[dict, int]:
    _check_guard("--point-guard", args.point_guard)
    table = systems.read_json(args.function, analysis.FunctionTable.from_json)
    value = analysis.gowers_norm(table, args.k, args.point_guard)
    report = {"norm": value}
    if args.direct:
        report["direct"] = analysis.gowers_norm_direct(table, args.k, args.point_guard)
        report["difference"] = abs(report["direct"] - value)
    return report, 0


def _add_common(sub):
    sub.add_argument("--output", choices=("json", "table"), default="json")
    sub.add_argument("--out", help="write the report to this path instead of stdout")


@functools.cache
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
        body, code, *side = args.func(args)
        side_files = side[0] if side else {}
        for path in side_files:
            _check_writable(path)
        _emit({"config": _config(args), **body}, args)
        for path, obj in side_files.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        return code
    except BrokenPipeError as exc:  # an OSError, but the output's fault, not the input's
        where = "--out" if getattr(args, "out", None) else "stdout"
        print(f"output error: {where} closed before the report was written: {exc}", file=sys.stderr)
        return 2
    except (systems.InputValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, analysis.EnumerationGuardExceeded, SearchGuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
