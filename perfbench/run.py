"""Benchmark of verified out-of-core sorts through the one-call API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload m-zipf --seed 1 --seconds 25 --trace 0

Every timed operation is one ``repro.oocs.api.sort_out_of_core`` call
with ``verify=True``. ``--trace 0`` prints the end-to-end metrics of
untraced sorts; ``--trace 1`` alternates untraced and traced sorts and
prints the per-layer metrics. The last line of standard output is the
result object; the line before it is a report with host facts, sample
counts and quartiles. See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # before the imports, which set-up includes

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workloads: 64-byte records with u8 keys, P = 2 ranks throughout.
WORKLOADS = {
    "threaded-bigcol": dict(
        algorithm="threaded", n=2**20, buffer=131072, keys="uniform",
        backend="thread", depth=0, checkpoint=False,
    ),
    "m-zipf": dict(
        algorithm="m", n=2**18, buffer=4096, keys="zipf",
        backend="thread", depth=0, checkpoint=False,
    ),
    "subblock-ckpt-process": dict(
        algorithm="subblock", n=2**18, buffer=4096, keys="uniform",
        backend="process", depth=2, checkpoint=True,
    ),
}
RANKS = 2
RECORD_SIZE = 64
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
MIN_SORTS = 3
BASELINE_REPEATS = 3

#: Median time of :class:`HostProbe` with 1 and 2 threads on a quiet
#: 2-CPU shared VM (Intel Xeon, numpy 2.4, tmpfs scratch). Every reported
#: time is converted to a host running at that speed.
PROBE_REF_S = {1: 0.078, 2: 0.085}
PROBE_KEYS = 2**19
M_MMAP_THRESHOLD, M_ARENA_MAX = -3, -8  # glibc mallopt parameters

#: The measurement behind each steadiness choice (2-CPU shared VM,
#: Intel Xeon, page-cached files).
STEADINESS = {
    "tmpfs_scratch": (
        "scratch and checkpoints live on tmpfs: a checkpointed subblock "
        "sort on the process backend took 2.20 s with 28.5% IQR on ext4 "
        "scratch and 1.19 s with 7.3% IQR on tmpfs; a 4 MiB threaded sort "
        "showed 36.7% vs 3.7% IQR"
    ),
    "ranks_le_nproc": (
        "P = 2 ranks, no more than the CPUs, so rank threads or processes "
        "do not oversubscribe them"
    ),
    "warm_up": (
        "an untimed warm-up sort fills the buffer pool and page cache "
        "before timing; its output digest is the reference for every "
        "timed sort"
    ),
    "several_sorts": (
        "a single verified sort varies 6-16% (IQR) and a single-threaded "
        "4M-key argsort 7-12%, so a run reports the median over every "
        "sort it times rather than one sort"
    ),
    "malloc_policy": (
        "glibc runs with one arena and a fixed 256 KiB mmap threshold, so "
        "freed arrays return to the OS at once and RSS follows live data: "
        "with the defaults the per-sort peak RSS of threaded-bigcol moved "
        "between 324 and 383 MiB from run to run (7-11% IQR), pinned it "
        "repeated within 0.03%"
    ),
    "host_probe": (
        "the host's speed drifted by 10-15% between groups of ten sorts "
        "(CPU time as much as wall time) and by 2x when the hypervisor "
        "stole 45-50% of both CPUs; timing a fixed probe next to every "
        "sort and scaling by it cut that drift to 3-4%"
    ),
}

UNAVAILABLE_BASELINE = (
    "pass_io_only cannot read the StripedColumnStore input layout of "
    "M-columnsort, so no I/O-only baseline exists at this shape"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_repro():
    """Import the program from the checkout's ``src/``; exit 2 when the
    checkout holds no program to measure."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.oocs.api  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                mount, fstype = line.split()[1:3]
                inside = str(path) == mount or str(path).startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def busy_and_steal_s() -> tuple[float, float]:
    """Busy and stolen CPU seconds of the whole guest since boot."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0.0, 0.0
    tick = os.sysconf("SC_CLK_TCK")
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return (user + nice + system + irq + softirq) / tick, steal / tick


def own_cpu_s() -> float:
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Stopwatch:
    """Wall time with the hypervisor's steal taken out.

    A guest CPU that has work but is not run by the host accrues steal
    (``/proc/stat``). :meth:`net` shrinks the wall time by the share of
    this process's busy CPU time that was stolen, ``wall · cpu / (cpu +
    steal)``; with no steal it is the wall time.
    """

    def __init__(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = own_cpu_s()
        self._steal = busy_and_steal_s()[1]

    def net(self) -> tuple[float, float]:
        """``(net_s, wall_s)`` since the stopwatch was made."""
        wall = time.perf_counter() - self._wall
        cpu = own_cpu_s() - self._cpu
        steal = busy_and_steal_s()[1] - self._steal
        if cpu <= 0 or steal <= 0:
            return wall, wall
        return wall * cpu / (cpu + steal), wall


def make_scratch_root() -> Path:
    """A private scratch directory on tmpfs when the host has one (see
    ``STEADINESS["tmpfs_scratch"]``), else inside the checkout. The
    ``repro-shm-`` prefix is avoided: the test suite's leak check
    unlinks every such entry in /dev/shm."""
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK) and fs_type(shm) == "tmpfs":
        return Path(tempfile.mkdtemp(prefix="oocs-bench-", dir=shm))
    local = ROOT / ".perfbench_scratch"
    local.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="oocs-bench-", dir=local))


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return [v, v, v]
    return statistics.quantiles(values, n=4)


class HostProbe:
    """A fixed kernel timed next to every measured operation: on each of
    ``threads`` threads at once, a stable argsort and gather of
    ``PROBE_KEYS`` int64 keys; then a write and read-back of the result
    on the scratch filesystem. It belongs to the benchmark, so no change
    to the program changes its work. ``scale()`` converts a steal-free
    time taken now to a host where the probe takes ``PROBE_REF_S``:
    steal covers the CPU time the host withheld, the probe a host that
    ran the CPUs it gave slower (shared cores and caches).

    The probe uses the CPUs the way the workload's ranks do: one thread
    per rank when ranks are processes, one thread when they share an
    interpreter. Timed next to the sorts, that choice tracked the sort
    times best on each backend (group medians within 3.5-3.8%, against
    5.7-14% with the other choice)."""

    def __init__(self, scratch: Path, threads: int) -> None:
        self._keys = np.random.default_rng(0).integers(0, 2**62, PROBE_KEYS)
        self._path = scratch / "probe.bin"
        self._threads = threads
        self.ref_s = PROBE_REF_S[threads]
        self.times: list[float] = []
        self.measure()

    def _sorted_keys(self, out: list, i: int) -> None:
        out[i] = self._keys[np.argsort(self._keys, kind="stable")]

    def measure(self) -> float:
        watch = Stopwatch()
        out = [None] * self._threads
        workers = [
            threading.Thread(target=self._sorted_keys, args=(out, i))
            for i in range(self._threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        self._path.write_bytes(out[0].tobytes())
        self._path.read_bytes()
        self._path.unlink()
        net, _ = watch.net()
        self.times.append(net)
        return net

    def scale(self, net: float) -> float:
        """Scale an operation that ran since the last probe: by the mean
        of that probe and a fresh one taken now."""
        before = self.times[-1]
        after = self.measure()
        return net * self.ref_s / ((before + after) / 2)


class Bench:
    def __init__(self, name: str, seed: int, scratch: Path) -> None:
        from repro.cluster import ClusterConfig
        from repro.records import RecordFormat

        self.w = WORKLOADS[name]
        self.seed = seed
        self.scratch = scratch
        self.probe = HostProbe(scratch, RANKS if self.w["backend"] == "process" else 1)
        self.fmt = RecordFormat("u8", RECORD_SIZE)
        self.cluster = ClusterConfig(p=RANKS, mem_per_proc=self.w["buffer"])
        self.input_bytes = self.w["n"] * RECORD_SIZE
        self.records = None
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peaks_mb: list[float] = []  # per sort
        self._count = 0

    def _dir(self, kind: str) -> Path:
        self._count += 1
        return self.scratch / f"{kind}-{self._count}"

    def generate(self) -> float:
        """Generate the input; returns the scaled time."""
        from repro.records import generate

        watch = Stopwatch()
        self.records = generate(self.w["keys"], self.fmt, self.w["n"], seed=self.seed)
        return self.probe.scale(watch.net()[0])

    def sort(self, tracer=None):
        """One verified sort. Returns ``(scaled_s, wall_s, result)``;
        ``result`` is None when the sort raised, failed verification,
        produced a different output than the warm-up sort, or left a
        thread or child process behind."""
        from repro.oocs.api import sort_out_of_core

        w = self.w
        work = self._dir("sort")
        gc.collect()
        reset_peak_rss()
        threads = set(threading.enumerate())
        self.attempted += 1
        res = None
        cm = tracer.installed() if tracer is not None else contextlib.nullcontext()
        watch = Stopwatch()
        try:
            with cm:
                res = sort_out_of_core(
                    w["algorithm"], self.records, self.cluster, self.fmt,
                    buffer_records=w["buffer"], workdir=work / "disks",
                    verify=True, pipeline_depth=w["depth"], backend=w["backend"],
                    checkpoint_dir=(work / "ckpt") if w["checkpoint"] else None,
                )
        except Exception as exc:  # a failed sort is counted, never dropped
            self.errors.append(f"{type(exc).__name__}: {exc}")
        net, wall = watch.net()
        self.peaks_mb.append(peak_rss_mb())
        scaled = self.probe.scale(net)
        leaked = [t.name for t in threading.enumerate() if t not in threads]
        leaked += [p.name for p in multiprocessing.active_children()]
        if res is not None and leaked:
            self.errors.append(f"sort left running: {sorted(leaked)}")
            res = None
        if res is not None:
            output = res.output_records()
            digest = hashlib.blake2b(output.view(np.uint8)).hexdigest()
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                self.errors.append("output digest differs from the warm-up sort")
                res = None
        if res is None:
            self.failed += 1
        shutil.rmtree(work, ignore_errors=True)
        return scaled, wall, res

    def baseline(self) -> float | None:
        """Scaled time of the I/O-only baseline at this workload's shape,
        layout, pass count, backend and depth; None where unavailable."""
        from repro.oocs.api import run_baseline_io
        from repro.oocs.base import OocJob, make_workspace
        from repro.oocs.baseline_io import baseline_io_passes
        from repro.oocs.subblock import derive_shape as subblock_shape

        w = self.w
        if w["algorithm"] == "m":
            return None
        work = self._dir("baseline")
        gc.collect()
        self.probe.measure()
        watch = Stopwatch()
        if w["algorithm"] == "threaded":
            run_baseline_io(
                self.records, self.cluster, self.fmt, w["buffer"], passes=3,
                workdir=work, pipeline_depth=w["depth"], backend=w["backend"],
            )
        else:
            job = OocJob(
                cluster=self.cluster, fmt=self.fmt, n=w["n"],
                buffer_records=w["buffer"], workdir=work,
                pipeline_depth=w["depth"], backend=w["backend"],
            )
            r, s = subblock_shape(job)
            ws = make_workspace(self.cluster, self.fmt, self.records, r, s, workdir=work)
            baseline_io_passes(job, ws.input, passes=4)
        scaled = self.probe.scale(watch.net()[0])
        shutil.rmtree(work, ignore_errors=True)
        return scaled


def io_ratio(bench: Bench, res) -> float:
    return (res.io["bytes_read"] + res.io["bytes_written"]) / bench.input_bytes


def setup(bench: Bench, import_wall: float) -> tuple[float, list[float]]:
    """Generate the input and run the untimed warm-up sort,
    ``SETUP_REPEATS`` times. Returns ``(setup_s, generate_times)``:
    the import time plus the median of the repeats, all scaled."""
    import_s = import_wall * bench.probe.ref_s / bench.probe.times[0]
    repeats, gen_times = [], []
    for _ in range(SETUP_REPEATS):
        gen = bench.generate()
        warm, _, _ = bench.sort()
        gen_times.append(gen)
        repeats.append(gen + warm)
    return import_s + statistics.median(repeats), gen_times


def fix_malloc_policy() -> None:
    """Pin glibc's allocator to one arena and a fixed 256 KiB mmap
    threshold (see ``STEADINESS["malloc_policy"]``). Call before any
    thread starts; forked ranks inherit it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)
    mallopt(M_MMAP_THRESHOLD, 256 * 1024)


def reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """RSS high-water mark of this process since :func:`reset_peak_rss`
    plus that of its largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return (own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_untraced(bench: Bench, seconds: float, setup_s: float):
    mbps, scaled, walls, ratios = [], [], [], set()
    first = len(bench.peaks_mb)
    t_end = time.perf_counter() + seconds
    while len(walls) < MIN_SORTS or time.perf_counter() < t_end:
        t, wall, res = bench.sort()
        scaled.append(t)
        walls.append(wall)
        # A failed sort delivered no sorted bytes: it counts as 0 MiB/s.
        mbps.append(bench.input_bytes / 2**20 / t if res is not None else 0.0)
        if res is not None:
            ratios.add(io_ratio(bench, res))
    problems = []
    if len(ratios) > 1:
        problems.append(f"io_bytes_per_input_byte varied across sorts: {sorted(ratios)}")
    metrics = {
        "sort_mbps": (statistics.median(mbps), "MiB/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(bench.peaks_mb[first:]), "MiB"),
        "io_bytes_per_input_byte": (min(ratios) if ratios else 0.0, "B/B"),
    }
    report = {
        "sorts": len(walls),
        "sort_mbps_quartiles": quartiles(mbps),
        "scaled_s_quartiles": quartiles(scaled),
        "wall_s_quartiles": quartiles(walls),
    }
    return metrics, report, problems


#: Counts that must repeat exactly between traced sorts of one seed.
COUNTS = (
    "durability.record_calls", "durability.sidecar_writes",
    "durability.bytes_hashed", "disks.write_calls", "disks.read_calls",
    "disks.sync_calls", "disks.bytes_written", "disks.bytes_read",
    "incore.columnsort_calls", "cluster.alltoallv_calls",
    "cluster.messages", "cluster.bytes", "membuf.bytes_copied",
    "membuf.bytes_zero_copy",
    "checkpoint.save_calls", "io_bytes_per_input_byte",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_x"):
        return "x"
    return "B" if "bytes" in name else "count"


def run_traced(bench: Bench, seconds: float, gen_times: list[float]):
    from layers import PER_LAYER, Tracer, result_metrics, span_metrics

    untraced_s, traced_s = [], []
    untraced_rows, traced_rows = [], []
    t_end = time.perf_counter() + seconds
    while len(traced_s) < 2 or time.perf_counter() < t_end:
        t, _, res = bench.sort()
        untraced_s.append(t)
        if res is not None:
            untraced_rows.append(result_metrics(res))
        tracer = Tracer()
        t, wall, res = bench.sort(tracer)
        traced_s.append(t)
        if res is not None:
            # Self times are wall times: scale them like the sort.
            row = {k: v * t / wall if k.endswith("_s") else v
                   for k, v in span_metrics(tracer).items()}
            row.update(result_metrics(res))
            row["io_bytes_per_input_byte"] = io_ratio(bench, res)
            traced_rows.append(row)

    problems = []
    for key in COUNTS:
        seen = sorted({row[key] for row in traced_rows})
        if len(seen) > 1:
            problems.append(f"count {key} differs between traced sorts: {seen}")
    if not traced_rows:
        problems.append("no traced sort succeeded")

    metrics = {}
    for key in PER_LAYER:
        # The program's own stage clocks are read from untraced sorts,
        # so the wrappers do not perturb them.
        rows = untraced_rows if key.startswith(("oocs.", "pipeline.")) else traced_rows
        if not rows:
            metrics[key] = 0.0
        elif key in COUNTS:
            metrics[key] = rows[0][key]  # equal in every row, checked above
        else:
            metrics[key] = statistics.median(row[key] for row in rows)
    metrics["records.generate_s"] = statistics.median(gen_times)

    unavailable = {}
    base = [bench.baseline() for _ in range(BASELINE_REPEATS)]
    untraced_median = statistics.median(untraced_s)
    if base[0] is None:
        for key in ("baseline.io_only_s", "baseline.overhead_x"):
            unavailable[key] = UNAVAILABLE_BASELINE
            metrics[key] = 0.0
    else:
        metrics["baseline.io_only_s"] = statistics.median(base)
        metrics["baseline.overhead_x"] = untraced_median / statistics.median(base)
    metrics["trace.overhead_x"] = statistics.median(traced_s) / untraced_median

    report = {
        "untraced_sorts": len(untraced_s),
        "traced_sorts": len(traced_s),
        "unavailable": unavailable,
    }
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, report, problems


def host_facts(scratch: Path, seed: int, busy_steal_at_start, probe_times) -> dict:
    busy, steal = (b - a for a, b in zip(busy_steal_at_start, busy_and_steal_s()))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "scratch_fs": fs_type(scratch),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "steal_share": steal / (busy + steal) if busy + steal > 0 else 0.0,
        "probe_s_quartiles": quartiles(probe_times),
        "steadiness": STEADINESS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    fix_malloc_policy()
    busy_steal = busy_and_steal_s()
    import_repro()
    import_wall = time.perf_counter() - _T_START

    scratch = make_scratch_root()
    try:
        bench = Bench(args.workload, args.seed, scratch)
        setup_s, gen_times = setup(bench, import_wall)
        if args.trace:
            metrics, report, problems = run_traced(bench, args.seconds, gen_times)
        else:
            metrics, report, problems = run_untraced(bench, args.seconds, setup_s)
        facts = host_facts(scratch, args.seed, busy_steal, bench.probe.times)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report.update(workload=args.workload, config=WORKLOADS[args.workload],
                  ranks=RANKS, errors=bench.errors[:5], problems=problems,
                  host=facts)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(report))
    result = {
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
