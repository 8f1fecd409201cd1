import os
import sys
from pathlib import Path


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > half of ``MemTotal`` in /proc/meminfo, clamped to 2-8g (the
    rule of the ROADMAP's Tier-1 command) > 2g. spark.driver.memory is read at JVM launch, not
    from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS before pyspark is
    imported anywhere — this runs at conftest import, which pytest loads
    before any test module.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f
                       if line.startswith("MemTotal:"))
        os.environ["_SPARK_DRIVER_MEM_SRC"] = f"meminfo:MemTotal={kib}kB"
        return f"{min(max(kib // (1 << 21), 2), 8)}g"
    except (OSError, StopIteration, ValueError):
        os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
        return "2g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
# The PySpark workers unpickle functions of ``repro`` and start from this
# environment, which pytest's ``pythonpath`` setting does not reach.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).parent / "src"), os.environ.get("PYTHONPATH"))
    if p
)
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def sparkf() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). The SQL settings below serve the dataflow reference
    layers, the only code that joins: 8 shuffle partitions (the test
    graphs are tiny), and Arrow on and broadcast joins off as in the
    session of ``perfbench``'s traced run, so those layers are tested
    with the shuffle joins it runs. ``decompose`` reads none of them.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions", 8)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()


@pytest.fixture(params=["true", "false"], ids=["arrow-on", "arrow-off"])
def arrow_sparkf(sparkf, request):
    """``sparkf`` with PySpark's Arrow setting on, then off as in a
    default session; the setting is restored after the test."""
    key = "spark.sql.execution.arrow.pyspark.enabled"
    before = sparkf.conf.get(key)
    sparkf.conf.set(key, request.param)
    try:
        yield sparkf
    finally:
        sparkf.conf.set(key, before)
