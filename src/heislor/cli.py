"""Command-line interface: classify metrics, emit reports, run the suite.

Subcommands: classify (a metric JSON file), curvature (one canonical class),
orbits (orbit table and degeneration graph, also as DOT via --format dot)
and verify (the named check suite).  Exit codes: 0 success, 1 verification
failure, 2 invalid input (including AmbiguousNearWall, a metric too close to
a classification wall to decide).  Commands raise; main maps each typed
error (heislor.errors) to its exit code in one table, EXIT_CODES.  Each report
command imports its own layer when it runs, so classify loads only the
classification layer.  classify takes no tolerance:
it reads every metric at unit scale, so c * M gets the class of M, and each
threshold is a fixed constant of the library.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ClassificationMismatch, EvidenceFailure, NumericalBreakdown, OracleMismatch
from .liealg import require_dim
from .metrics import CANONICAL_PAIRS, metric_from_json, xi_key_of
from .numerics import APPROX, EXACT
from .reduction import classification_to_json, classify, signature_table, verify_witness

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

#: largest n the curvature and orbits reports take; their cost grows steeply with n
MAX_REPORT_N = 100

#: exit code of each typed error, in order: the first type that matches wins.
#: BrokenPipeError comes first because it is an OSError: the reader went
#: away, which is no error.  A recomputed table that disagrees with its
#: independent check is a failed verification; the rest is input the program
#: cannot answer.  Any other exception is a bug and keeps its traceback.
EXIT_CODES = {
    BrokenPipeError: EXIT_OK,
    OracleMismatch: EXIT_CHECK_FAILED,
    EvidenceFailure: EXIT_CHECK_FAILED,
    ValueError: EXIT_BAD_INPUT,
    OSError: EXIT_BAD_INPUT,
    ClassificationMismatch: EXIT_BAD_INPUT,
    NumericalBreakdown: EXIT_BAD_INPUT,
}


def canonical_json(obj) -> str:
    """Deterministic serialization used for byte-for-byte round trips."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_metric(path: str, backend: str | None):
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except RecursionError:
        raise ValueError("the JSON document is nested too deeply") from None
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
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def cmd_classify(args) -> int:
    metric = _load_metric(args.input, args.backend)
    if args.n is not None and metric.n != args.n:
        raise ValueError(f"file has n={metric.n}, --n says {args.n}")
    form, k, witness = classify(metric)
    check = verify_witness(metric, witness)
    payload = classification_to_json(form, k, witness)
    payload["witness_residual"] = check.residual
    payload["witness_ok"] = check.ok
    # classify matched the metric's restricted signatures to this table row
    center, derived = signature_table(metric.n)[form.pair]
    payload["signatures"] = {"center": center, "derived": derived}
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
        print(f"signature on center: {center}  on derived ideal: {derived}")
        print(
            f"witness: {len(witness.left)} left x {len(witness.right)} right factors, "
            f"residual {check.residual:.2e} ({'ok' if check.ok else 'FAILED'})"
        )
        if witness.flags:
            print(f"flags: {', '.join(witness.flags)}")
    return EXIT_OK if check.ok else EXIT_CHECK_FAILED


def cmd_curvature(args) -> int:
    from .curvature import curvature_report
    from .orbits import orbit_report

    report = curvature_report(args.lam, args.xi, args.n, backend=args.backend)
    orbit = orbit_report(args.lam, args.xi, args.n)
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
        print(f"  signature on center      : {orbit.sig_center}")
        print(f"  signature on derived     : {orbit.sig_derived}")
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
    from .orbits import degeneration_graph, orbit_report

    graph = degeneration_graph(args.n)
    reports = [orbit_report(lam, key, args.n) for lam, key in CANONICAL_PAIRS]
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
                f"{str(r.sig_center):<16} {str(r.sig_derived):<13} {r.closed}"
            )
        print("  degenerations:")
        for (src, dst), tag in sorted(graph.edges.items()):
            print(f"    ({src[0]},{src[1]}) -> ({dst[0]},{dst[1]})  [{tag}]")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verification import run_all

    if args.n_min < 4 or args.n_max > 12 or args.n_min > args.n_max:
        raise ValueError("need 4 <= n-min <= n-max <= 12")
    if args.samples < 1:
        raise ValueError(f"need --samples >= 1, got {args.samples}")
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
    try:
        if args.command in ("curvature", "orbits"):
            require_dim(args.n)
            if args.n > MAX_REPORT_N:
                raise ValueError(f"need n <= {MAX_REPORT_N}, got {args.n}")
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
        if code != EXIT_OK:
            print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
