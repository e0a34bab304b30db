"""Command-line interface: classify metrics, emit reports, run the suite.

Subcommands: classify (a metric JSON file), curvature (one canonical class),
orbits (orbit table and degeneration graph, also as DOT via --format dot)
and verify (the named check suite).  Exit codes: 0 success, 1 verification
failure, 2 invalid input.  The METRICLASS_TOL environment variable sets the
float tolerance of classify when --tol is not given; either must be a
positive finite number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .metrics import (
    CANONICAL_PAIRS,
    NotARepresentative,
    WrongSignature,
    canonical_json,
    metric_from_json,
    xi_key_of,
)
from .numerics import APPROX, DEFAULT_TOL, EXACT
from .curvature import curvature_report
from .orbits import degeneration_graph, orbit_report
from .reduction import (
    ClassificationMismatch,
    NoTableMatch,
    NumericalBreakdown,
    classification_to_json,
    classify,
    restricted_signatures,
    verify_witness,
)
from .verification import run_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _classify_tol(flag: float | None) -> float:
    """--tol, else METRICLASS_TOL, else DEFAULT_TOL; ValueError unless positive and finite."""
    if flag is not None:
        source, raw = "--tol", flag
    else:
        raw = os.environ.get("METRICLASS_TOL")
        if raw is None:
            return DEFAULT_TOL
        source = "METRICLASS_TOL"
    try:
        tol = float(raw)
    except ValueError:
        raise ValueError(f"{source}={raw!r} is not a number") from None
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{source}={raw!r} must be a positive finite number")
    return tol


def _load_metric(path: str, backend: str | None):
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    metric = metric_from_json(data)
    if backend and backend != metric.backend:
        if backend == APPROX:
            metric = metric.to_approx()
        else:
            raise ValueError(
                "exact backend rejects float entries; supply exact-format strings"
            )
    return metric


def _xi_arg(value: str):
    try:
        return xi_key_of(value if value == "sqrt3" else float(value))
    except (ValueError, NotARepresentative) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def cmd_classify(args) -> int:
    try:
        tol = _classify_tol(args.tol)
        metric = _load_metric(args.input, args.backend)
        if args.n is not None and metric.n != args.n:
            raise ValueError(f"file has n={metric.n}, --n says {args.n}")
        form, k, witness = classify(metric, tol)
    except (
        ValueError,
        KeyError,
        json.JSONDecodeError,
        NoTableMatch,
        WrongSignature,
        ClassificationMismatch,
        NumericalBreakdown,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    check = verify_witness(metric, witness)
    payload = classification_to_json(form, k, witness)
    payload["witness_residual"] = check.residual
    payload["witness_ok"] = check.ok
    center, derived = restricted_signatures(metric, tol)
    payload["signatures"] = {"center": center.as_tuple(), "derived": derived.as_tuple()}
    if args.format == "json":
        print(canonical_json(payload))
    elif args.format == "csv":
        print("lambda,xi,k,witness_residual,flags")
        print(
            f"{payload['lambda']},{payload['xi']},{k},{check.residual},"
            + ";".join(witness.flags)
        )
    else:
        xi = payload["xi"]
        print(f"class: (lambda, xi) = ({form.lam}, {xi})")
        print(f"scale k: {k:.12g}")
        print(f"signature on center: {center.as_tuple()}  on derived ideal: {derived.as_tuple()}")
        print(
            f"witness: {len(witness.left)} left x {len(witness.right)} right factors, "
            f"residual {check.residual:.2e} ({'ok' if check.ok else 'FAILED'})"
        )
        if witness.flags:
            print(f"flags: {', '.join(witness.flags)}")
    return EXIT_OK if check.ok else EXIT_CHECK_FAILED


def cmd_curvature(args) -> int:
    try:
        report = curvature_report(args.lam, args.xi, args.n, backend=args.backend)
        orbit = orbit_report(args.lam, args.xi, args.n)
    except (NotARepresentative, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.format == "json":
        payload = {"curvature": report.to_json(), "orbit": orbit.to_json()}
        print(canonical_json(payload))
    elif args.format == "csv":
        spectrum = ";".join(str(x) for x in report.spectrum)
        print("lambda,xi,n,flat,einstein,soliton_c,codimension,spectrum")
        c = report.soliton[0] if report.soliton else ""
        print(
            f"{report.lam},{report.xi_key},{args.n},{report.flat},"
            f"{report.einstein},{c},{orbit.codim},{spectrum}"
        )
    else:
        print(f"canonical class (lambda, xi) = ({report.lam}, {report.xi_key}), n = {args.n}")
        print(f"  signature on center      : {orbit.sig_center.as_tuple()}")
        print(f"  signature on derived     : {orbit.sig_derived.as_tuple()}")
        print(f"  flat                     : {report.flat}")
        print(f"  Einstein                 : {report.einstein}")
        if report.soliton:
            c, _d = report.soliton
            print(f"  Ricci soliton            : yes, c = {c}")
        print(f"  Ricci spectrum (corner)  : {[str(x) for x in report.spectrum]}")
        print(f"  orbit codimension        : {orbit.codim}")
        print(f"  stabilizer dimension     : {orbit.stab_dim}")
        print(f"  closed orbit             : {orbit.closed}")
    return EXIT_OK


def cmd_orbits(args) -> int:
    try:
        graph = degeneration_graph(args.n)
        reports = [orbit_report(lam, key, args.n) for lam, key in CANONICAL_PAIRS]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.format == "dot":
        print(graph.to_dot())
        return EXIT_OK
    if args.format == "json":
        payload = {"graph": graph.to_json(), "orbits": [r.to_json() for r in reports]}
        print(canonical_json(payload))
    elif args.format == "csv":
        print("lambda,xi,n,codimension,stabilizer_dim,closed")
        for r in reports:
            print(f"{r.lam},{r.xi_key},{r.n},{r.codim},{r.stab_dim},{r.closed}")
    else:
        print(f"orbit geometry at n = {args.n}")
        print("  class        codim  stab  sig(center)      sig(derived)  closed")
        for r in reports:
            name = f"({r.lam},{r.xi_key})"
            print(
                f"  {name:<12} {r.codim:<6} {r.stab_dim:<5} "
                f"{str(r.sig_center.as_tuple()):<16} {str(r.sig_derived.as_tuple()):<13} {r.closed}"
            )
        print("  degenerations:")
        for (src, dst), tag in sorted(graph.edges.items()):
            print(f"    ({src[0]},{src[1]}) -> ({dst[0]},{dst[1]})  [{tag}]")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n_min < 4 or args.n_max > 12 or args.n_min > args.n_max:
        print("error: need 4 <= n-min <= n-max <= 12", file=sys.stderr)
        return EXIT_BAD_INPUT
    results = run_all(args.n_min, args.n_max, samples=args.samples, seed=args.seed)
    ok = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "ok": ok,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                    "seconds": round(r.duration, 3),
                }
                for r in results
            ],
        }
        print(canonical_json(payload))
    else:
        for r in results:
            print(r.line())
        print(f"{'ALL CHECKS PASSED' if ok else 'FAILURES PRESENT'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heislor",
        description=(
            "Classify left-invariant Lorentzian metrics on the Heisenberg group "
            "times a Euclidean factor; curvature and orbit reports; verification suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="classify a metric JSON file")
    p_cls.add_argument("--input", required=True, help="metric JSON path, or - for stdin")
    p_cls.add_argument("--n", type=int, default=None)
    p_cls.add_argument("--backend", choices=(EXACT, APPROX), default=None)
    p_cls.add_argument("--tol", type=float, default=None)
    p_cls.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_cls.set_defaults(func=cmd_classify)

    p_cur = sub.add_parser("curvature", help="curvature + orbit report for one class")
    p_cur.add_argument("--lambda", dest="lam", type=int, required=True)
    p_cur.add_argument("--xi", type=_xi_arg, required=True, help="0, 1, sqrt3 or 2")
    p_cur.add_argument("--n", type=int, required=True)
    p_cur.add_argument("--backend", choices=(EXACT, APPROX), default=EXACT)
    p_cur.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_cur.set_defaults(func=cmd_curvature)

    p_orb = sub.add_parser("orbits", help="orbit table and degeneration graph")
    p_orb.add_argument("--n", type=int, required=True)
    p_orb.add_argument("--format", choices=("json", "csv", "text", "dot"), default="text")
    p_orb.set_defaults(func=cmd_orbits)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--n-min", type=int, default=4)
    p_ver.add_argument("--n-max", type=int, default=8)
    p_ver.add_argument("--samples", type=int, default=200, help="randomized metrics per class and n")
    p_ver.add_argument("--seed", type=int, default=20240)
    p_ver.add_argument("--format", choices=("json", "text"), default="text")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("curvature", "orbits") and args.n < 4:
        print("error: need n >= 4", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
