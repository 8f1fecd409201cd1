"""The paper's evaluation tables T1-T5 (DESIGN.md §5), printed as markdown
after one line naming the host they ran on.

Usage::

    spark-submit jobs/tables.py [--tables 1,2,3,4,5] [--datasets YT,GA]
        [--h-values 2,3] [--parallelism 1,2,4] [--budget 100] [--scale S]

A flag left out keeps each table's own default (see ``repro.bench``):
T3 and T5 run all six stand-ins at h ∈ {2, 3}, T4 runs YT, VL and GA at
h=2 at the powers of two up to the session's task slots
(``defaultParallelism``), and T2 runs the toy graph at h=2. ``--parallelism`` sets T4's
levels, ``--budget`` the seconds Base may take per T3 cell, and the
serial per-edge schedule per T5 cell, before the cell is reported INF,
and ``--scale`` the stand-ins' size (default: each one's bench scale).
"""
import argparse

from repro.bench import (
    BUDGET_S, host_line, markdown_table, table1, table2, table3, table4, table5,
    warm_up,
)
from repro.graphgen import DATASETS


def _ints(text):
    return [int(x) for x in text.split(",")]


def _names(text):
    return text.split(",")


def run(spark, argv=None):
    """Print the tables ``argv`` selects, each as soon as it is done."""
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tables", type=_ints, default=[1, 2, 3, 4, 5])
    ap.add_argument("--datasets", type=_names, default=None)
    ap.add_argument("--h-values", type=_ints, default=None)
    ap.add_argument("--parallelism", type=_ints, default=None)
    ap.add_argument("--budget", type=float, default=BUDGET_S)
    ap.add_argument("--scale", type=float, default=None)
    args = ap.parse_args(argv)
    tables = {
        1: lambda: table1(args.datasets, args.scale),
        2: lambda: table2(spark, args.h_values),
        3: lambda: table3(spark, args.datasets, args.h_values,
                          budget_s=args.budget, scale=args.scale),
        4: lambda: table4(spark, args.datasets, args.h_values, args.parallelism,
                          scale=args.scale),
        5: lambda: table5(spark, args.datasets, args.h_values,
                          budget_s=args.budget, scale=args.scale),
    }
    if unknown := set(args.tables) - tables.keys():
        ap.error(f"no table {sorted(unknown)}; the tables are 1-5")
    if unknown := set(args.datasets or []) - DATASETS.keys():
        ap.error(f"no dataset {sorted(unknown)}; pick from {sorted(DATASETS)}")
    if min(args.h_values or [1]) < 1:
        ap.error("--h-values must all be at least 1")
    if min(args.parallelism or [1]) < 1:
        ap.error("--parallelism must all be at least 1")
    if not args.budget >= 0:  # NaN fails too
        ap.error("--budget must be a number of seconds, at least 0")
    if args.scale is not None and not args.scale > 0:
        ap.error("--scale must be a number above 0")
    print(host_line(spark), flush=True)
    if set(args.tables) - {1}:  # T1 makes no Spark call
        warm_up(spark)
    for t in args.tables:
        print(f"\n## T{t}\n\n{markdown_table(*tables[t]())}", flush=True)


def main():
    from _session import get_spark

    spark = get_spark("tables")
    try:
        run(spark)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
