"""Command-line interface.

Subcommands: compute, dyck, synthesize, enumerate, verify.  Results go to
stdout (JSON or plain values); progress and traces go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Optional

from .affine import parse_perm
from .dyck import (
    _require_cs_convex,
    count_avoiding_paths,
    enumerate_avoiding_paths,
    synthesize_perm,
)
from .engine import Engine
from .errors import PosicatError
from .harness import (
    census_report,
    enumerate_theta,
    verify_engine,
    verify_main_theorem,
    verify_structure,
    verify_synthesis,
)
from .invsets import (
    RECT,
    SHEARED,
    inversion_multiset,
    a_sequence,
    lambda_partition,
    parse_forbidden,
    rect_to_sheared,
    sheared_to_rect,
)
from .paths import nu, nu_bar


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posicat",
        description="Exact positroid Catalan combinatorics: recurrences, "
        "inversion multisets, Dyck counting, synthesis, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one statistic of one permutation")
    p_compute.add_argument(
        "--perm", required=True,
        help="window:3,6,4,... | cycle:(0,3,2,...) | JSON {\"window\": [...]}",
    )
    p_compute.add_argument(
        "--what", required=True,
        choices=["catalan", "rpoly", "rtilde", "inversions", "fset", "lambda", "nu"],
    )
    p_compute.add_argument(
        "--one-based", action="store_true",
        help="read cycle entries on 1..n and windows as (f(1), ..., f(n))",
    )
    p_compute.add_argument(
        "--trace", action="store_true",
        help="emit the applied recurrence rules as JSON lines on stderr",
    )
    p_compute.add_argument(
        "--stats", action="store_true",
        help="print the engine's cache counters as one JSON object on stderr",
    )

    p_dyck = sub.add_parser("dyck", help="count (or list) avoiding Dyck paths")
    p_dyck.add_argument("--k", type=int, required=True)
    p_dyck.add_argument("--n", type=int, required=True)
    p_dyck.add_argument("--forbid", default="", help="forbidden points, e.g. '1,1;2,3'")
    p_dyck.add_argument("--coords", choices=[RECT, SHEARED], default=RECT)
    p_dyck.add_argument("--list", action="store_true", help="print the paths themselves")

    p_synth = sub.add_parser("synthesize", help="build a repetition-free permutation from a forbidden set")
    p_synth.add_argument("--k", type=int, required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--forbid", default="", help="forbidden points, e.g. '1,1;2,3'")
    p_synth.add_argument("--coords", choices=[RECT, SHEARED], default=RECT)

    p_enum = sub.add_parser("enumerate", help="stream the single-cycle permutations of one period")
    p_enum.add_argument("--n", type=_positive_int, required=True)
    p_enum.add_argument("--k", type=int, default=None)
    p_enum.add_argument("--repetition-free", action="store_true")
    p_enum.add_argument("--format", choices=["json", "csv"], default="json")

    p_verify = sub.add_parser("verify", help="run an exhaustive verification suite")
    p_verify.add_argument(
        "--suite", required=True,
        choices=["main", "synthesis", "engine", "structure", "census"],
    )
    p_verify.add_argument("--n-max", type=int, default=8)
    p_verify.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes, at least 1 (default 1); the census runs serially"
    )
    return parser


def _cmd_compute(args) -> int:
    perm = parse_perm(args.perm, one_based=args.one_based)
    trace_hook = None
    if args.trace:
        trace_hook = lambda record: print(json.dumps(record), file=sys.stderr)
    engine = Engine(trace_hook=trace_hook)
    what = args.what
    if what == "catalan":
        print(engine.compute_C(perm))
    elif what == "rpoly":
        print(engine.compute_R(perm).text())
    elif what == "rtilde":
        print(engine.compute_Rtilde(perm).text())
    elif what == "inversions":
        print(json.dumps([[i, j] for i, j in perm.inversions()]))
    elif what == "fset":
        print(inversion_multiset(perm).as_json())
    elif what == "lambda":
        print(json.dumps({
            "lambda": list(lambda_partition(perm)),
            "a": list(a_sequence(perm)),
        }))
    elif what == "nu":
        print(json.dumps({
            "nu": nu(perm),
            "nu_bar": nu_bar(perm),
            "gcd": math.gcd(perm.k, perm.n),
        }))
    if args.stats:
        print(json.dumps(engine.stats), file=sys.stderr)
    return 0


def _forbidden_sheared(args) -> set:
    points = parse_forbidden(args.forbid)
    if args.coords == RECT:
        return {rect_to_sheared(p) for p in points}
    return set(points)


def _cmd_dyck(args) -> int:
    forbidden = _forbidden_sheared(args)
    if args.list:
        paths = enumerate_avoiding_paths(args.k, args.n, forbidden)
        for path in paths:
            print(json.dumps(path))
        print(len(paths), file=sys.stderr)
    else:
        print(count_avoiding_paths(args.k, args.n, forbidden))
    return 0


def _cmd_synthesize(args) -> int:
    points = set(parse_forbidden(args.forbid))
    if args.coords == SHEARED:
        _require_cs_convex(points, args.k, args.n)  # errors name the points as given
        points = {sheared_to_rect(p) for p in points}
    perm = synthesize_perm(points, args.k, args.n)
    print(perm.to_json())
    return 0


_ENUMERATE_FIELDS = ("n", "k", "window", "ell", "repetition_free", "catalan", "fset", "nu_bar")


def _cmd_enumerate(args) -> int:
    """One record per permutation, computed once; only the window and the
    inversion multiset are written differently in CSV."""
    perms = enumerate_theta(args.k, args.n)  # a bad frame raises before any output
    engine = Engine()
    writer = None
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, _ENUMERATE_FIELDS)
        writer.writeheader()
    for perm in perms:
        ms = inversion_multiset(perm)
        repfree = ms.is_set()
        if args.repetition_free and not repfree:
            continue
        record = dict(zip(_ENUMERATE_FIELDS, (
            perm.n,
            perm.k,
            perm.window,
            perm.length(),
            repfree,
            engine.compute_C(perm),
            [p for p in ms.points() for _ in range(ms.multiplicity(p))],
            nu_bar(perm),
        )))
        if writer is None:
            print(json.dumps(record))  # tuples are written as JSON lists
        else:
            record["window"] = ",".join(map(str, perm.window))
            record["fset"] = ms.text()
            writer.writerow(record)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "census":
        report = census_report(args.n_max)
        print(json.dumps(report))
        print(
            f"census: n <= {args.n_max}, all groups match gcd: {report['all_match_gcd']}",
            file=sys.stderr,
        )
        return 0  # observational, never fails the run
    runner = {
        "main": verify_main_theorem,
        "synthesis": verify_synthesis,
        "engine": verify_engine,
        "structure": verify_structure,
    }[args.suite]
    report = runner(args.n_max, jobs=args.jobs)
    print(report.to_json())
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{args.suite}: {report.checked} instances, "
        f"{len(report.failures)} failures, {report.elapsed:.1f}s [{status}]",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "compute": _cmd_compute,
        "dyck": _cmd_dyck,
        "synthesize": _cmd_synthesize,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except PosicatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
