#!/usr/bin/env python3
"""Hold every committed vanishing claim against exact decompositions.

Sweeps all boards up to a degree bound, recomputing each multiplicity without
structural shortcuts, and reports any claim that misses. Exit code 1 means a
discrepancy was found, which would be publishable news.

    python3 scripts/verify_shapes.py --max-degree 12
"""

import argparse
import sys
import time

from foulkes.cli import _JOBS_HELP, _jobs
from foulkes.partitions import format_partition
from foulkes.vanishing import verify_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-degree", type=int, default=12)
    parser.add_argument("--jobs", type=_jobs, default=1, help=_JOBS_HELP)
    args = parser.parse_args(argv)

    boards = [(a, b) for a in range(1, args.max_degree + 1)
              for b in range(1, args.max_degree // a + 1)]
    bad = 0
    for a, b in boards:
        start = time.perf_counter()
        found = verify_all(a, b, jobs=args.jobs)
        elapsed = time.perf_counter() - start
        if found:
            bad += len(found)
            for d in found:
                print(f"MISS a={a} b={b} shape={format_partition(d.partition)} "
                      f"rule={d.rule.value} expected={d.expected} actual={d.actual}")
        else:
            print(f"ok    a={a} b={b} all claims exact [{elapsed:.2f}s]", flush=True)
    if bad:
        print(f"{bad} discrepancies found")
        return 1
    print(f"{len(boards)} boards verified clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
