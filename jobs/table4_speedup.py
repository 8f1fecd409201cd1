"""T4 — paper Figure 5: Paral speedup versus parallelism.

Parallelism plays the paper's thread-count role (DESIGN.md
substitution 1); the 1-partition run is the paper's **Single**. A call
runs at most ``defaultParallelism`` kernel tasks, so the table shows
the worker count each requested parallelism ran with.

Usage::

    spark-submit jobs/table4_speedup.py \
        [--datasets YT,VL,GA] [--h 2] [--parallelism 1,2,4,8,16]
"""
import argparse

from repro.bench import markdown_table, run_speedup_cell
from repro.core.paral import worker_count


def run(spark, datasets, h, parallelism_levels, scale=None) -> str:
    """Render T4: wall time and speedup vs the 1-partition Single run."""
    rows = []
    for d in datasets:
        base_t = None
        for p in parallelism_levels:
            secs, _ = run_speedup_cell(spark, d, h, p, scale=scale)
            if base_t is None:
                base_t = secs
            workers = worker_count(spark.sparkContext, p)
            rows.append([d, h, p, workers, f"{secs:.2f}s", f"{base_t / secs:.2f}x"])
    return markdown_table(
        ["dataset", "h", "parallelism", "workers", "time", "speedup vs Single"],
        rows,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--datasets", default="YT,VL,GA")
    ap.add_argument("--h", type=int, default=2)
    ap.add_argument("--parallelism", default="1,2,4,8,16")
    ap.add_argument("--scale", type=float, default=None)
    args = ap.parse_args()
    from _session import get_spark

    spark = get_spark("table4-speedup")
    print(
        run(
            spark,
            args.datasets.split(","),
            args.h,
            [int(x) for x in args.parallelism.split(",")],
            scale=args.scale,
        )
    )
    spark.stop()


if __name__ == "__main__":
    main()
