#!/usr/bin/env python3
"""Write the reference table that the queries-3x10 workload checks against.

The table is the full decomposition of h_10[h_3] computed by the
strip-insertion route (`decomposition.decompose`), not by the
Murnaghan-Nakayama sum that the workload times. Before writing, it is held
against Sigma mult * dim = |Omega| and the census figures 3590/1909/492.
Only non-zero rows are written, one `lambda mult` line each.

    PYTHONPATH=src python3 perfbench/make_reference.py --jobs 2

It takes about 1.5 minutes on two cores.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from foulkes.decomposition import FoulkesShape, decompose  # noqa: E402
from foulkes.partitions import format_partition  # noqa: E402
from foulkes.vanishing import Verdict, predictions_for  # noqa: E402

A, B = 3, 10
REFERENCE = os.path.join(HERE, "reference_3x10.txt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    shape = FoulkesShape(A, B)
    table = decompose(shape, jobs=args.jobs)
    if table.dimension_sum != shape.omega_size:
        raise SystemExit("dimension sum differs from |Omega|")
    boxed = [(lam, m) for lam, m in table.entries if len(lam) <= B]
    zero = [lam for lam, m in boxed if m == 0]
    predicted = sum(
        1 for lam in zero
        if any(p.verdict is Verdict.ZERO for p in predictions_for(shape, lam)))
    if (len(boxed), len(zero), predicted) != (3590, 1909, 492):
        raise SystemExit(f"census {len(boxed)}/{len(zero)}/{predicted}, "
                         "expected 3590/1909/492")
    with open(REFERENCE, "w") as fh:
        fh.write(f"# non-zero multiplicities of h_{B}[h_{A}], "
                 "one 'lambda mult' line each\n")
        for lam, m in table.nonzero_entries:
            fh.write(f"{format_partition(lam)} {m}\n")
    print(f"wrote {len(table.nonzero_entries)} rows to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
