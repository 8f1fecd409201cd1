"""Benchmark of ``repro.core.api.decompose`` on Spark ``local[nproc]``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload yt-h2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

One process is one closed-loop caller. It starts a session, makes one
untimed warm-up call (the first call of a session pays ~15 s of JVM
warm-up), then calls ``decompose(variant="paral+")`` on the workload's
graph, one call after the other, until ``--seconds`` have passed (at
least one call). Every call's trussness is compared edge by edge with
the serial asynchronous ``pyref`` oracle, computed once per process
outside every timed span.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` instead,
after the same warm-up, runs each graph layer, one sweep of the
kernel, and one Paral and one Paral+ call (in an order rotated by seed)
in Spark job groups, plus one ``trace=True`` call, and reports the
per-layer metrics (``perfbench/README.md`` says which end-to-end metric
each should move). ``--smoke`` runs both on the toy graph.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full report,
with the host and the spans, goes to ``.perfbench/results/``.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import sparkenv  # noqa: E402
from perfbench.workloads import SMOKE, WORKLOADS, digest  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# A call slower than this counts as failed even if its answer is right.
CALL_TIMEOUT_S = 120.0
# Times the fused kernel sweep is repeated in the traced run.
KERNEL_REPEATS = 3

# The timed loop calls Paral+ alone, after one untimed warm-up call: a
# call costs ~1.5 s per sweep on 4 cores whatever the graph size, plus
# ~15 s of JVM warm-up in the first call of a session, and the benchmark
# is sized for ~50 runs in under an hour. The traced run calls both.
TIMED = "paral+"
TRACED = ("paral", "paral+")

END_TO_END = {
    "setup_s": "s",
    "paral_plus_s": "s",
    "paral_plus_sweeps": "count",
}

_LAYER_COUNTS = {"s": "s", "rows": "count", "jobs": "count", "stages": "count",
                 "tasks": "count"}
GRAPH_LAYERS = ("edges", "hops", "triads", "h_support")
PER_LAYER = {
    **{f"graph.{g}.{k}": u for g in GRAPH_LAYERS for k, u in _LAYER_COUNTS.items()},
    "core.hindex.sweep.s": "s",
    "core.hindex.sweep.stages": "count",
    "core.hindex.path_keys.s": "s",
    "core.hindex.path_keys.rows": "count",
    "core.hindex.path_keys.stages": "count",
    "core.hindex.h_index_agg.s": "s",
    "core.hindex.h_index_agg.stages": "count",
    **{
        f"core.paral.{v}.{k}": u
        for v in ("paral", "paral_plus")
        for k, u in (("s", "s"), ("sweeps", "count"), ("jobs", "count"),
                     ("stages", "count"), ("tasks", "count"),
                     ("derived.stages_per_sweep", "count"),
                     ("derived.sweep_s", "s"), ("derived.driver_s", "s"))
    },
    "core.paral.changed": "count",
    "core.paral.derived.useful_frac": "ratio",
    "core.paral.trace_overhead_s": "s",
    "pyref.serial_async.s": "s",
    "pyref.serial_async.sweeps": "count",
    "derived.paral_over_pyref": "ratio",
    "peak_rss_mb": "MiB",
}


def metric_key(variant: str) -> str:
    return variant.replace("+", "_plus")


class Checker:
    """The correctness gate: counts calls and the ones that failed."""

    def __init__(self, reference: dict):
        import pandas as pd

        self._ref = pd.DataFrame(
            [(u, v, t) for (u, v), t in reference.items()],
            columns=["src", "dst", "expected"],
        )
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, label: str, pdf, seconds: float) -> None:
        """Record one call; ``pdf`` is its trussness table, or None if it
        raised."""
        self.attempted += 1
        problem = None
        if pdf is None:
            problem = "raised"
        elif seconds > CALL_TIMEOUT_S:
            problem = f"took {seconds:.1f}s > {CALL_TIMEOUT_S}s"
        else:
            got = pdf[["src", "dst", "trussness"]].astype("int64")
            both = self._ref.merge(got, on=["src", "dst"], how="outer")
            bad = int((both["expected"] != both["trussness"]).sum())
            if bad or len(got) != len(self._ref):
                problem = f"{bad} edges differ from the reference"
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")


def timed_call(spark, checker, spans, edges, h, variant, label, **kw):
    """One ``decompose`` call up to its trussness table being on the
    driver; returns ``(seconds, result or None)``."""
    from repro.core.api import decompose

    res = pdf = None
    # Garbage left by the previous call is collected here, untimed, so a
    # collection does not land at a random point of this one.
    gc.collect()
    spark.sparkContext._jvm.System.gc()
    start = time.perf_counter()
    try:
        with spans.span(label) if spans else nullcontext():
            res = decompose(spark, edges, h, variant=variant,
                            parallelism=sparkenv.cores(), **kw)
            pdf = res.trussness.toPandas()
    except Exception as exc:  # a failed call is counted, not fatal
        print(f"call {label} raised {exc!r}", file=sys.stderr)
        res = None
    seconds = time.perf_counter() - start
    checker.check(label, pdf, seconds)
    return seconds, res


def run_timed(spark, checker, w, edges, seconds) -> tuple[dict, list, list]:
    """Closed loop of Paral+ calls, after the warm-up, until ``seconds``
    have passed (at least one call); the end-to-end metrics, the call
    times, and the CPU time stolen from the host during each call."""
    times, sweeps, steal = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        stolen = sparkenv.steal_s()
        s, res = timed_call(spark, checker, None, edges, w.h, TIMED,
                            f"{TIMED}#{len(times)}")
        times.append(s)
        steal.append(sparkenv.steal_s() - stolen)
        if res is not None:
            sweeps.append(res.sweeps)
    metrics = {
        "paral_plus_s": statistics.median(times),
        "paral_plus_sweeps": statistics.median(sweeps) if sweeps else 0,
    }
    return metrics, times, steal


def run_traced(spark, checker, w, edges, seed, ref_s, ref_sweeps):
    """Per-layer metrics, the spans, and the edges changed per sweep.

    Each layer is materialised once, in its own job group."""
    from pyspark.sql import functions as F

    from repro.core.hindex import h_index_agg, path_keys
    from repro.graph.edges import adjacency_df, edges_df
    from repro.graph.hops import hop_pairs_df
    from repro.graph.triads import h_support_df, triads_df

    spans = sparkenv.Spans(spark, _T0)
    m = {}

    def layer(name, action):
        with spans.span(name) as rec:
            rows = action()
        for k in ("s", "jobs", "stages", "tasks"):
            m[f"{name}.{k}"] = rec[k]
        m[f"{name}.rows"] = rows
        return rec

    # The graph setup layers, as decompose builds them.
    e = edges_df(spark, edges).repartition(sparkenv.cores()).persist()
    adj = adjacency_df(e).persist()

    def edges_and_adjacency():
        adj.count()
        return e.count()

    layer("graph.edges", edges_and_adjacency)
    hops = hop_pairs_df(e, w.h).persist()
    layer("graph.hops", hops.count)
    triads = triads_df(e, hops).persist()
    layer("graph.triads", triads.count)
    sup = {}

    def support():
        sup["pdf"] = h_support_df(e, hops).toPandas()
        return len(sup["pdf"])

    layer("graph.h_support", support)
    setup_layers_s = sum(m[f"graph.{g}.s"] for g in GRAPH_LAYERS)

    # One sweep of the kernel on the initial supports: first fused, as the
    # loop runs it (the median of a few), then with the path keys persisted
    # to time the parts.
    pdf = sup["pdf"]
    state = spark.createDataFrame(
        pdf[["eid", "support"]].rename(columns={"support": "hval"}),
        schema="eid long, hval long",
    )
    adj_val = adj.join(state, on="eid").select("a", "b", "hval")

    def witness_values(p):
        return (
            triads.join(p.select(F.col("a").alias("src"), "w",
                                 F.col("pkey").alias("p_src")), on=["src", "w"])
            .join(p.select(F.col("a").alias("dst"), "w",
                           F.col("pkey").alias("p_dst")), on=["dst", "w"])
            .select("eid", F.least("p_src", "p_dst").alias("value"))
        )

    kernel_runs = []
    for _ in range(KERNEL_REPEATS):
        with spans.span("core.hindex.sweep") as rec:
            h_index_agg(witness_values(path_keys(adj_val, w.h))).toPandas()
        kernel_runs.append(rec)
    sw = sorted(kernel_runs, key=lambda r: r["s"])[KERNEL_REPEATS // 2]
    with spans.span("core.hindex.path_keys") as pk:
        p = path_keys(adj_val, w.h).persist()
        pk_rows = p.count()
    with spans.span("core.hindex.h_index_agg") as ha:
        h_index_agg(witness_values(p)).toPandas()
    m.update({
        "core.hindex.sweep.s": sw["s"],
        "core.hindex.sweep.stages": sw["stages"],
        "core.hindex.path_keys.s": pk["s"],
        "core.hindex.path_keys.rows": pk_rows,
        "core.hindex.path_keys.stages": pk["stages"],
        "core.hindex.h_index_agg.s": ha["s"],
        "core.hindex.h_index_agg.stages": ha["stages"],
    })
    for df in (p, triads, hops, adj, e):
        df.unpersist()

    # Whole calls, one job group each, in an order rotated by seed.
    call_s = {}
    k = seed % len(TRACED)
    for v in TRACED[k:] + TRACED[:k]:
        key = metric_key(v)
        s, res = timed_call(spark, checker, spans, edges, w.h, v,
                            f"core.paral.{key}")
        rec = spans.records[-1]
        call_s[key] = s
        n = max(res.sweeps if res is not None else 0, 1)
        sweep_s = (s - setup_layers_s) / n
        m.update({
            f"core.paral.{key}.s": s,
            f"core.paral.{key}.sweeps": n,
            f"core.paral.{key}.jobs": rec["jobs"],
            f"core.paral.{key}.stages": rec["stages"],
            f"core.paral.{key}.tasks": rec["tasks"],
            f"core.paral.{key}.derived.stages_per_sweep": rec["stages"] / n,
            f"core.paral.{key}.derived.sweep_s": sweep_s,
            f"core.paral.{key}.derived.driver_s": sweep_s - sw["s"],
        })

    # Wasted work, from one call that keeps every sweep's values.
    s, res = timed_call(spark, checker, spans, edges, w.h, "paral",
                        "core.paral.traced", trace=True)
    changed = []
    if res is not None:
        changed = [int((a["hval"] != b["hval"]).sum())
                   for a, b in zip(res.trace, res.trace[1:])]
    n_sweeps = max(len(changed), 1)
    m.update({
        "core.paral.changed": sum(changed),
        "core.paral.derived.useful_frac": sum(changed) / (n_sweeps * len(edges)),
        "core.paral.trace_overhead_s": s - call_s["paral"],
        "pyref.serial_async.s": ref_s,
        "pyref.serial_async.sweeps": ref_sweeps,
        "derived.paral_over_pyref": call_s["paral"] / ref_s,
    })
    return m, spans.records, changed


def host(spark) -> dict:
    import pyspark

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "cores": sparkenv.cores(),
        "memory_gib": round(mem_kb / 2**20, 1),
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "python": platform.python_version(),
        "master": spark.sparkContext.master,
        "parallelism": sparkenv.cores(),
        "driver_memory": sparkenv.DRIVER_MEMORY,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="both metric sets on the toy graph, h=1, without warm-up")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")
    if not (SRC / "repro" / "core" / "api.py").is_file():
        print(f"perfbench: the program's sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.pyref import serial_hindex_decompose

    w = SMOKE if args.smoke else WORKLOADS[args.workload]
    edges = w.edges(args.seed)
    graph = {"vertices": len(set(edges.ravel().tolist())), "edges": len(edges),
             "digest": digest(edges), "h": w.h}

    # The oracle, outside every timed span and excluded from setup_s.
    t = time.perf_counter()
    reference, ref_sweeps = serial_hindex_decompose(
        [tuple(e) for e in edges.tolist()], w.h, asynchronous=True)
    ref_s = time.perf_counter() - t

    t = time.perf_counter()
    spark = sparkenv.start_spark(WORK, SRC)
    setup = {"before_session_s": t - _T0 - ref_s,
             "session_s": time.perf_counter() - t}
    try:
        checker = Checker(reference)
        if not args.smoke:
            # Calls are timed warm: one untimed call on the workload's
            # graph first. Paral+ runs Paral's full sweep plan and, where
            # it prunes, its restricted one.
            t = time.perf_counter()
            timed_call(spark, checker, None, edges, w.h, TIMED, "warmup")
            setup["warmup_s"] = time.perf_counter() - t
        setup_s = time.perf_counter() - _T0 - ref_s
        metrics, samples, steal, spans, changed = {}, [], [], [], []
        if args.trace == 0 or args.smoke:
            metrics, samples, steal = run_timed(
                spark, checker, w, edges, 0 if args.smoke else args.seconds)
            metrics["setup_s"] = setup_s
        if args.trace == 1 or args.smoke:
            layered, spans, changed = run_traced(spark, checker, w, edges,
                                                 args.seed, ref_s, ref_sweeps)
            metrics.update(layered)
            metrics["peak_rss_mb"] = sparkenv.peak_rss_mb()
        hostinfo = host(spark)
    finally:
        sparkenv.stop_spark(spark)
        shutil.rmtree(WORK / "tmp", ignore_errors=True)

    names = ({**END_TO_END, **PER_LAYER} if args.smoke
             else PER_LAYER if args.trace else END_TO_END)
    out = {k: {"value": metrics[k], "unit": names[k]} for k in names}
    report = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": hostinfo, "graph": graph,
        "setup": setup,
        "reference": {"sweeps": ref_sweeps, "s": ref_s},
        "attempted": checker.attempted, "failed": checker.failed,
        "failed_frac": checker.failed / max(checker.attempted, 1),
        "errors": checker.errors, "paral_plus_call_s": samples,
        "paral_plus_call_steal_s": steal,
        "changed_per_sweep": changed, "spans": spans, "metrics": out,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))

    print(f"host {json.dumps(hostinfo)}")
    print(f"graph {w.name}: {json.dumps(graph)}")
    for k, v in out.items():
        print(f"metric {k} = {v['value']:.6g} {v['unit']}")
    if samples:
        print(f"paral+ calls: {len(samples)}, seconds "
              f"{[round(x, 3) for x in samples]}, CPU seconds stolen by the "
              f"host during them {[round(x, 1) for x in steal]}")
    print(f"failed_frac = {report['failed_frac']:.6g} "
          f"({checker.failed}/{checker.attempted})")
    for err in checker.errors:
        print(f"FAILED {err}")
    print(f"report written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
