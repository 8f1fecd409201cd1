"""Generic decomposition entrypoint: one dataset, one h, one variant.

Usage::

    spark-submit jobs/run_decomposition.py --dataset YT --h 2 \
        [--variant paral+] [--scale S] [--out /path/result.parquet]

Prints the trussness histogram; optionally writes the full edge-level
result as Parquet.
"""
import argparse

from repro.core.api import VARIANTS, decompose
from repro.graphgen import DATASETS, dataset_edges


def run(spark, dataset, h, variant="paral", scale=None, out=None):
    """Run one decomposition; returns (histogram dict, sweeps)."""
    edges = dataset_edges(dataset, scale)
    res = decompose(spark, edges, h, variant=variant)
    if out:
        res.trussness.write.mode("overwrite").parquet(out)
    counts = res.trussness.groupBy("trussness").count().collect()
    return {int(k): int(n) for k, n in counts}, res.sweeps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", required=True, choices=sorted(DATASETS))
    ap.add_argument("--h", type=int, default=2)
    ap.add_argument("--variant", default="paral", choices=VARIANTS)
    ap.add_argument("--scale", type=float, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.h < 1:
        ap.error("--h must be at least 1")
    if args.scale is not None and not args.scale > 0:  # NaN fails too
        ap.error("--scale must be a number above 0")
    from _session import get_spark

    spark = get_spark(f"decompose-{args.dataset}-h{args.h}-{args.variant}")
    try:
        hist, sweeps = run(
            spark, args.dataset, args.h, args.variant, args.scale, args.out
        )
    finally:
        spark.stop()
    print(f"dataset={args.dataset} h={args.h} variant={args.variant} sweeps={sweeps}")
    for k in sorted(hist):
        print(f"  trussness {k}: {hist[k]} edges")


if __name__ == "__main__":
    main()
