"""The benchmark's Spark session, its shutdown, and the measurements
taken from outside the program: spans in Spark job groups and the
memory of the process tree."""
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

DRIVER_MEMORY = "2g"


def cores() -> int:
    """Cores this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


def start_spark(work: Path, src: Path):
    """A ``local[nproc]`` session whose scratch files stay under ``work``.

    The settings mirror ``jobs/_session.py`` (Arrow on, broadcast joins
    off, no UI) with two additions that remove fixed per-query cost, which
    dominates on graphs of a few thousand edges:

    * adaptive query execution is off, so each query runs one static
      plan. With it on, every shuffle stage is re-planned and submitted
      as its own job (70 jobs instead of 8 for one call on the toy
      graph), and a call is 1.5-1.7x slower;
    * whole-stage code generation is off. Each sweep plans new queries,
      and generating their code made a warm call 1.2-1.5x slower and the
      first call of a session 1.1-1.3x slower on both workloads.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    master = f"local[{cores()}]"
    # Read at JVM launch; replaces any inherited value (pytest's conftest
    # sets one for the test suite).
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master} --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    spark = (
        SparkSession.builder.master(master)
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", java_opts)
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.sql.shuffle.partitions", str(cores()))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.codegen.wholeStage", "false")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # The status tracker forgets jobs and stages beyond these limits;
        # one call on yt-h2 runs about 1,000 stages.
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.ui.retainedStages", "100000")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark, timeout_s: float = 60.0) -> None:
    """Stop the session, wait for the JVM to exit, then end and reap any
    process still left below this one."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout_s)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in descendants():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        while descendants() and time.monotonic() < deadline:
            time.sleep(0.1)


def descendants() -> list[int]:
    """Every live process below this one."""
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z":  # a zombie has ended already
            kids.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [os.getpid()]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def steal_s() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs since
    boot, summed over CPUs, in seconds. Other tenants of a shared host
    show up here; a run whose calls were slow because of them has a large
    difference across its timed span."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of each process's peak resident memory over this process and
    its descendants (driver Python, JVM, Python workers), in MiB. Read
    before the session stops; an upper bound on the tree's joint peak."""
    pids = [os.getpid(), *descendants()]
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0


class Spans:
    """Timed spans around calls into the program, each in its own Spark
    job group, so its jobs, stages and tasks can be counted afterwards.

    Spans nest; each record names its parent, and a span's counts leave
    out the jobs of spans nested in it. Records stay in memory and are
    written out with the run's results.
    """

    def __init__(self, spark, t0: float):
        self._sc = spark.sparkContext
        self._tracker = self._sc.statusTracker()
        self._t0 = t0
        self._stack: list[str] = []
        self.records: list[dict] = []

    @contextmanager
    def span(self, name: str):
        gid = f"perfbench-{len(self.records)}-{name}"
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.records.append(rec)
        outer = self._sc.getLocalProperty("spark.jobGroup.id")
        self._sc.setJobGroup(gid, name)
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if outer is None:
                self._sc.setLocalProperty("spark.jobGroup.id", None)
            else:
                self._sc.setJobGroup(outer, outer)
            rec.update(
                start_s=start - self._t0, end_s=end - self._t0, s=end - start,
                **self._count(gid),
            )

    def _count(self, gid: str) -> dict:
        jobs = self._tracker.getJobIdsForGroup(gid)
        stages = tasks = 0
        for j in jobs:
            info = self._tracker.getJobInfo(j)
            for sid in info.stageIds if info else ():
                st = self._tracker.getStageInfo(sid)
                if st and st.numCompletedTasks:  # skipped stages ran nothing
                    stages += 1
                    tasks += st.numCompletedTasks
        return {"jobs": len(jobs), "stages": stages, "tasks": tasks}
