"""Command line front end.

Prints machine-readable JSON (or CSV for decompose --csv) on stdout and keeps
the exit code meaningful: 0 clean, 1 a claim failed to match the exact
computation, 2 bad input (an input so large that a recursion runs past
Python's recursion limit included), 3 out of time budget, 4 interrupted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from foulkes.decomposition import (
    DecompositionTable,
    FoulkesShape,
    decompose,
    multiplicity,
    orbit_size,
)
from foulkes.partitions import (
    box_partitions,
    format_partition,
    from_hook_coords,
    parse_partition,
    to_hook_coords,
    HookCoordinates,
)
from foulkes.symfunc import ComputeBudgetExceeded
from foulkes.vanishing import census, verify_all

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERRUPT = 4

_SIZE_GUARD_NOTE = (
    "--max-ab bounds the degree for multiplicity, decompose, verify and "
    "restrict, and the shape's weight for hook-coords; census is capped at "
    "degree 30 unless --allow-large is given.")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if math.isnan(value):
        raise argparse.ArgumentTypeError("nan is not a number of seconds")
    return value


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


_JOBS_HELP = ("accepted for compatibility and must be >= 1; it changes nothing, "
              "since every table is computed in one process (default 1)")


def _guard_degree(a: int, b: int, max_ab: int) -> FoulkesShape:
    shape = FoulkesShape(a, b)
    if shape.degree > max_ab:
        raise ValueError(
            f"degree {shape.degree} is past --max-ab={max_ab}; raise it on purpose")
    return shape


def cmd_multiplicity(args) -> int:
    shape = _guard_degree(args.a, args.b, args.max_ab)
    lam = parse_partition(args.partition, weight=shape.degree)
    m = multiplicity(shape, lam, use_fastpath=not args.no_fastpath)
    _emit({"a": args.a, "b": args.b, "lambda": format_partition(lam), "mult": m})
    return EXIT_OK


def cmd_decompose(args) -> int:
    shape = _guard_degree(args.a, args.b, args.max_ab)
    table = decompose(shape, use_fastpath=not args.no_fastpath,
                      jobs=args.jobs, deadline=args.time_limit)
    if args.nonzero:
        table = DecompositionTable(a=table.a, b=table.b, entries=table.nonzero_entries)
    if args.csv:
        sys.stdout.write(table.to_csv_text())
    else:
        _emit(table.to_json_dict())
    return EXIT_OK


def cmd_census(args) -> int:
    shape = FoulkesShape(args.a, args.b)
    if shape.degree > 30 and not args.allow_large:
        raise ValueError(
            f"degree {shape.degree} census needs --allow-large (expect a long wait)")
    report = census(args.a, args.b, jobs=args.jobs, deadline=args.time_limit)
    _emit(report.to_json_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    _guard_degree(args.a, args.b, args.max_ab)
    found = verify_all(args.a, args.b, jobs=args.jobs, deadline=args.time_limit)
    _emit({
        "a": args.a,
        "b": args.b,
        "discrepancies": [
            {
                "lambda": format_partition(d.partition),
                "rule": d.rule.value,
                "expected": d.expected,
                "actual": d.actual,
            }
            for d in found
        ],
    })
    return EXIT_DISCREPANCY if found else EXIT_OK


def cmd_restrict(args) -> int:
    shape = _guard_degree(args.a, args.b, args.max_ab)
    if not 0 <= args.r <= shape.degree:
        raise ValueError(f"r must lie in 0..{shape.degree}")
    orbits = [
        {"lambda": format_partition(lam), "size": orbit_size(args.a, args.b, lam)}
        for lam in box_partitions(args.r, args.a, args.b)
    ]
    _emit({
        "a": args.a,
        "b": args.b,
        "r": args.r,
        "total": sum(row["size"] for row in orbits),
        "orbits": orbits,
    })
    return EXIT_OK


def cmd_hook_coords(args) -> int:
    by_parts = args.partition is not None
    by_coords = args.total is not None or args.leg is not None or args.inside is not None
    if by_parts == by_coords:
        raise ValueError("give either a partition or --total/--leg (not both, not neither)")
    if by_parts:
        coords = to_hook_coords(parse_partition(args.partition, weight=args.max_ab))
        lam = from_hook_coords(coords)
    else:
        if args.total is None or args.leg is None:
            raise ValueError("--total and --leg are both required to build a shape")
        if args.total > args.max_ab:
            raise ValueError(
                f"weight {args.total} is past --max-ab={args.max_ab}; raise it on purpose")
        inside = parse_partition(args.inside, weight=args.total) if args.inside else ()
        coords = HookCoordinates(total=args.total, leg=args.leg, inside=inside)
        lam = from_hook_coords(coords)
    _emit({
        "lambda": format_partition(lam),
        "total": coords.total,
        "leg": coords.leg,
        "inside": format_partition(coords.inside),
        "inside_weight": coords.inside_weight,
        "tail_weight": coords.tail_weight,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=_jobs, default=1, help=_JOBS_HELP)
    common.add_argument("--max-ab", type=int, default=20,
                        help="refuse degrees (for hook-coords, weights) above this "
                             "(default 20)")
    common.add_argument("--time-limit", type=_seconds, default=None, metavar="SECONDS",
                        help="wall-clock budget for decompose, census and verify; "
                             "exceeding it exits 3 (the other commands ignore it)")

    parser = argparse.ArgumentParser(
        prog="foulkes",
        description="Exact decompositions of block-partition permutation characters.",
        epilog=_SIZE_GUARD_NOTE)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiplicity", parents=[common],
                       help="one irreducible multiplicity")
    p.add_argument("a", type=int, help="block size")
    p.add_argument("b", type=int, help="block count")
    p.add_argument("partition", help="shape, like 7,3,1,1 or 4,2^3")
    p.add_argument("--no-fastpath", action="store_true",
                   help="run the pull recursion unpruned: no dominance shortcut, and "
                        "shapes with more rows than blocks are followed too")
    p.set_defaults(func=cmd_multiplicity)

    p = sub.add_parser("decompose", parents=[common],
                       help="full multiplicity table")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.add_argument("--nonzero", action="store_true", help="drop zero rows")
    p.add_argument("--no-fastpath", action="store_true",
                   help="expand without the row-count pruning")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("census", parents=[common],
                       help="count zeros among shapes with at most b rows")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--allow-large", action="store_true",
                   help="permit degrees above 30")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", parents=[common],
                       help="check every committed claim against exact values")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("restrict", parents=[common],
                       help="orbit sizes under marking r points")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("r", type=int, help="number of marked points")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("hook-coords", parents=[common],
                       help="translate shapes to and from leg/inside coordinates")
    p.add_argument("partition", nargs="?", default=None,
                   help="shape to encode, like 7,3,1,1")
    p.add_argument("--total", type=int, default=None, help="weight of the shape")
    p.add_argument("--leg", type=int, default=None, help="boxes below the first row")
    p.add_argument("--inside", default=None,
                   help="partition inside the hook ('' for none)")
    p.set_defaults(func=cmd_hook_coords)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (None, 0) else EXIT_INPUT

    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"claim violation: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    except ComputeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print(f"error: {args.command}: input too large, it ran past Python's "
              f"recursion limit of {sys.getrecursionlimit()}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
