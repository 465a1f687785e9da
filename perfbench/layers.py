"""Per-layer spans recorded from the benchmark's own files.

:class:`Tracer` wraps public functions of each layer of ``repro`` for
the duration of one traced sort and sums, per wrapped function, the
number of calls and the *self* time (the span's wall time minus the
part covered by spans of other wrapped functions it called on the same
thread). Times are summed over every rank and pipeline thread.

On the process backend the ranks run in forked children. The fork
inherits the wrappers; the wrapped rank program returns the child's
totals inside its result dict, and the wrapped SPMD launcher pops them
out of every rank's result in the parent and adds them up.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

import repro.durability.checksums as checksums_mod
import repro.oocs.api as api_mod
import repro.oocs.base as base_mod
import repro.oocs.mcolumnsort as mcolumnsort_mod
from repro.cluster.comm import Comm
from repro.disks.virtual_disk import VirtualDisk
from repro.durability.checksums import BlockChecksums
from repro.resilience.checkpoint import CheckpointStore

#: (owner, attribute, span name). Module attributes are patched in the
#: namespace of their caller: ``atomic_write_json`` only as called from
#: the checksum catalog, ``distributed_columnsort`` only as called from
#: M-columnsort, ``verify_output`` only as called from the one-call API.
TARGETS = (
    (VirtualDisk, "write_at", "disks.write"),
    (VirtualDisk, "read_at", "disks.read"),
    (VirtualDisk, "sync", "disks.sync"),
    (BlockChecksums, "record", "durability.record"),
    (checksums_mod, "atomic_write_json", "durability.sidecar"),
    (mcolumnsort_mod, "distributed_columnsort", "incore.columnsort"),
    (Comm, "alltoallv", "cluster.alltoallv"),
    # The sort programs exchange window halves with plain send/recv;
    # ``Comm.sendrecv`` is built from the same two calls.
    (Comm, "send", "cluster.sendrecv"),
    (Comm, "recv", "cluster.sendrecv"),
    (Comm, "barrier", "cluster.barrier"),
    (CheckpointStore, "save_pass", "checkpoint.save"),
    (api_mod, "verify_output", "verify"),
)

_SHIP_KEY = "_perfbench_spans"

#: Every per-layer metric a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    "durability.record_calls", "durability.record_self_s",
    "durability.sidecar_writes", "durability.sidecar_self_s",
    "durability.bytes_hashed",
    "disks.write_calls", "disks.write_self_s", "disks.read_calls",
    "disks.read_self_s", "disks.sync_calls", "disks.sync_self_s",
    "disks.bytes_written", "disks.bytes_read",
    "incore.columnsort_calls", "incore.columnsort_self_s",
    "oocs.compute_s", "oocs.incore_s", "oocs.comm_s",
    "pipeline.read_wait_s", "pipeline.write_wait_s",
    "cluster.alltoallv_calls", "cluster.alltoallv_self_s",
    "cluster.sendrecv_self_s", "cluster.barrier_self_s",
    "cluster.messages", "cluster.bytes",
    "membuf.bytes_copied", "membuf.bytes_zero_copy", "membuf.pool_misses",
    "membuf.peak_held_bytes",
    "checkpoint.save_calls", "checkpoint.save_self_s",
    "verify.self_s",
)


class Tracer:
    """Call counts and self times of the wrapped functions."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.totals: dict[str, list] = {}  # name -> [calls, self_s]
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, name: str, fn):
        local, lock, totals = self._local, self._lock, self.totals

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)  # wall time of this span's child spans
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += wall
                with lock:
                    entry = totals.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += wall - child

        return traced

    def _snapshot(self) -> dict:
        with self._lock:
            return {k: list(v) for k, v in self.totals.items()}

    def _add(self, delta: dict) -> None:
        with self._lock:
            for name, (calls, self_s) in delta.items():
                entry = self.totals.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s

    def _ship_from_ranks(self, execute_passes, run_spmd_metered):
        tracer = self

        def ranked(*args, **kwargs):
            forked = os.getpid() != tracer.pid
            before = tracer._snapshot() if forked else None
            out = execute_passes(*args, **kwargs)
            if forked:
                after = tracer._snapshot()
                out[_SHIP_KEY] = {
                    k: [v[0] - before.get(k, [0, 0.0])[0],
                        v[1] - before.get(k, [0, 0.0])[1]]
                    for k, v in after.items()
                }
            return out

        def launch(*args, **kwargs):
            res, copy = run_spmd_metered(*args, **kwargs)
            for value in res.returns:
                if isinstance(value, dict) and _SHIP_KEY in value:
                    tracer._add(value.pop(_SHIP_KEY))
            return res, copy

        return ranked, launch

    @contextlib.contextmanager
    def installed(self):
        """Patch every target (and the rank-shipping hooks) for the body
        of the ``with`` block, then restore the originals."""
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in TARGETS]
        originals += [
            (base_mod, "execute_passes", base_mod.execute_passes),
            (base_mod, "run_spmd_metered", base_mod.run_spmd_metered),
        ]
        ranked, launch = self._ship_from_ranks(
            base_mod.execute_passes, base_mod.run_spmd_metered
        )
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(name, vars(owner)[attr]))
            base_mod.execute_passes = ranked
            base_mod.run_spmd_metered = launch
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1]


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced sort taken from its spans."""
    t = tracer
    return {
        "durability.record_calls": t.calls("durability.record"),
        "durability.record_self_s": t.self_s("durability.record"),
        "durability.sidecar_writes": t.calls("durability.sidecar"),
        "durability.sidecar_self_s": t.self_s("durability.sidecar"),
        "disks.write_calls": t.calls("disks.write"),
        "disks.write_self_s": t.self_s("disks.write"),
        "disks.read_calls": t.calls("disks.read"),
        "disks.read_self_s": t.self_s("disks.read"),
        "disks.sync_calls": t.calls("disks.sync"),
        "disks.sync_self_s": t.self_s("disks.sync"),
        "incore.columnsort_calls": t.calls("incore.columnsort"),
        "incore.columnsort_self_s": t.self_s("incore.columnsort"),
        "cluster.alltoallv_calls": t.calls("cluster.alltoallv"),
        "cluster.alltoallv_self_s": t.self_s("cluster.alltoallv"),
        "cluster.sendrecv_self_s": t.self_s("cluster.sendrecv"),
        "cluster.barrier_self_s": t.self_s("cluster.barrier"),
        "checkpoint.save_calls": t.calls("checkpoint.save"),
        "checkpoint.save_self_s": t.self_s("checkpoint.save"),
        "verify.self_s": t.self_s("verify"),
    }


def result_metrics(res) -> dict[str, float]:
    """Per-layer counters one sort's ``OocResult`` carries."""
    wall = res.stage_wall()
    return {
        "durability.bytes_hashed": res.io["bytes_hashed"],
        "disks.bytes_written": res.io["bytes_written"],
        "disks.bytes_read": res.io["bytes_read"],
        "cluster.messages": res.comm_total["messages"],
        "cluster.bytes": res.comm_total["bytes"],
        "membuf.bytes_copied": res.copy["bytes_copied"],
        "membuf.bytes_zero_copy": res.copy["bytes_zero_copy"],
        "membuf.pool_misses": res.copy["pool_misses"],
        "membuf.peak_held_bytes": res.governor["peak_held_bytes"],
        "oocs.compute_s": wall.get("compute", 0.0),
        "oocs.incore_s": wall.get("incore", 0.0),
        "oocs.comm_s": wall.get("comm", 0.0),
        "pipeline.read_wait_s": wall.get("read_wait", 0.0),
        "pipeline.write_wait_s": wall.get("write_wait", 0.0),
    }
