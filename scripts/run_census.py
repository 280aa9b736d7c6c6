#!/usr/bin/env python3
"""Zero-multiplicity census over a range of block shapes.

Runs the census for every (a, b) in the requested ranges and prints one JSON
line per board, so long sweeps can be resumed or diffed with standard tools.

    python3 scripts/run_census.py --max-a 3 --max-b 7
    python3 scripts/run_census.py --pairs 3,10
"""

import argparse
import json
import sys

from foulkes.cli import EXIT_BUDGET, EXIT_DISCREPANCY, _JOBS_HELP, _jobs, _seconds
from foulkes.decomposition import FoulkesShape
from foulkes.symfunc import ComputeBudgetExceeded
from foulkes.vanishing import census


def board(text: str) -> tuple[int, int]:
    """A,B names b blocks of size a; argparse reports a ValueError as bad input."""
    a, b = map(int, text.split(","))
    FoulkesShape(a, b)
    return a, b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-a", type=int, default=3)
    parser.add_argument("--max-b", type=int, default=6)
    parser.add_argument("--pairs", nargs="*", type=board, default=None, metavar="A,B",
                        help="explicit boards instead of the full grid")
    parser.add_argument("--jobs", type=_jobs, default=1, help=_JOBS_HELP)
    parser.add_argument("--time-limit", type=_seconds, default=None,
                        help="budget per board, seconds; exceeding it exits 3")
    args = parser.parse_args(argv)

    boards = args.pairs or [(a, b) for a in range(1, args.max_a + 1)
                            for b in range(1, args.max_b + 1)]
    for a, b in boards:
        try:
            report = census(a, b, jobs=args.jobs, deadline=args.time_limit)
        except ComputeBudgetExceeded as exc:
            print(f"error: a={a} b={b}: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except ArithmeticError as exc:
            print(f"claim violation: a={a} b={b}: {exc}", file=sys.stderr)
            return EXIT_DISCREPANCY
        print(json.dumps(report.to_json_dict(), separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
