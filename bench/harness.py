"""Measurement plumbing shared by the five workloads.

A :class:`Recorder` collects one repeat of one workload: host time per
phase, one span per phase and per client op, per-op simulated latency,
failures, and -- through :class:`Run`, one simulated cluster under one
scheme -- every simulated counter the per-layer metrics are derived
from.  Everything simulated that a repeat reads goes into
:meth:`Recorder.digest`, so two repeats of one input must agree on it.

Host time is ``time.perf_counter`` / ``time.process_time`` around the
harness's own calls; simulated time is ``env.now``.  The two never mix
in one number.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Any, Dict, Generator, List, Optional

import numpy as np

import repro
from repro.errors import ReproError
from repro.units import MiB, mbps

SCHEMES = ("raid0", "raid1", "raid5", "hybrid")

#: ``src/repro`` packages that are a layer of their own; every other file
#: under ``src/repro`` (workloads, mpiio, hdf5lite, experiments, csar,
#: perf, and the top-level modules) is the ``workloads`` layer.
_PACKAGE_LAYERS = ("sim", "hw", "storage", "util", "pvfs", "redundancy",
                   "faults", "analysis")
REPRO_LAYERS = _PACKAGE_LAYERS + ("workloads",)
LAYERS = REPRO_LAYERS + ("numpy", "other")

#: Phases whose host time is ``wall_s``/``cpu_s``; ``populate`` is set-up
#: and ``verify`` is the harness's own oracle, timed apart from both.
TIMED_PHASES = ("write", "read", "degraded_read", "degraded_write",
                "rebuild", "scrub", "chaos")
PHASES = ("populate",) + TIMED_PHASES + ("verify",)

#: a latency percentile needs ten samples beyond it: p99 needs 1000 ops
MIN_OPS_FOR_P99 = 1000

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def cumulative(system) -> Dict[str, float]:
    """Every simulated counter of ``system`` as of now (all monotone)."""
    out: Dict[str, float] = dict(system.metrics.counters)
    stats = system.env.stats()
    out["sim.events_scheduled"] = stats["scheduled"]
    out["sim.events_dispatched"] = stats["dispatched"]
    for name, value in system.metrics.node_tx_bytes.items():
        out[f"tx.{name}"] = value
    for name, value in system.metrics.node_rx_bytes.items():
        out[f"rx.{name}"] = value
    nic_wait = 0.0
    for node in system.server_nodes + system.client_nodes:
        out[f"disk_busy.{node.name}"] = node.disk.busy_time
        out[f"cpu_busy.{node.name}"] = node.cpu.busy_time
        nic_wait += node.nic.tx.total_wait_time + node.nic.rx.total_wait_time
    out["hw.nic_wait_s"] = nic_wait
    out["redundancy.lock_wait_s"] = sum(
        iod.locks.total_wait_time for iod in system.iods)
    return out


class Run:
    """One simulated cluster under one scheme, inside one repeat."""

    def __init__(self, rec: "Recorder", scheme: str, system,
                 label: Optional[str] = None) -> None:
        self.rec = rec
        self.scheme = scheme
        self.system = system
        self.label = label or scheme
        #: simulated counters accumulated over the timed phases
        self.stats: Dict[str, float] = defaultdict(float)
        self.sim_s = 0.0
        self.nic_bandwidth = system.config.resolved_profile.network.bandwidth
        rec.runs.append(self)

    @contextmanager
    def phase(self, name: str):
        """Time one phase on the host and in the simulation."""
        rec = self.rec
        timed = name in TIMED_PHASES
        env = self.system.env
        before = cumulative(self.system) if timed else None
        span = rec.open_span(name, self, sim_start=env.now)
        with rec.host_phase(name, span):
            yield span
        span["sim_end"] = env.now
        if timed:
            self.absorb(before, cumulative(self.system),
                        span["sim_end"] - span["sim_start"])

    def close(self) -> None:
        """Free the simulated cluster now; the statistics stay.

        A finished cluster is garbage only the cycle collector frees.
        Left to the collector's own schedule it overlaps the next
        scheme's cluster or not, and ``peak_rss_mb`` says which.
        """
        self.system = None
        with self.rec.setup():
            gc.collect()

    def absorb(self, before: Optional[Dict[str, float]],
               after: Dict[str, float], sim_s: float) -> None:
        """Add the counters accumulated between two snapshots."""
        for key, value in after.items():
            delta = value - (before.get(key, 0.0) if before else 0.0)
            if delta:
                self.stats[key] += delta
        self.sim_s += sim_s

    # -- client ops (process bodies) -------------------------------------
    def write(self, client: int, name: str, offset: int, payload,
              ref: Optional[np.ndarray] = None,
              ) -> Generator[Any, Any, bool]:
        """One client write; on success mirrors it into ``ref``."""
        span = self.rec.open_op("write", self, client)
        try:
            yield from self.system.clients[client].write(name, offset,
                                                         payload)
        except ReproError as exc:
            self.rec.close_op(span, self, error=exc)
            return False
        if ref is not None:
            ref[offset:offset + payload.length] = payload.data
        self.rec.close_op(span, self)
        return True

    def read(self, client: int, name: str, offset: int, length: int,
             ref: Optional[np.ndarray] = None) -> Generator[Any, Any, bool]:
        """One client read, checked byte for byte against ``ref``."""
        span = self.rec.open_op("read", self, client)
        try:
            data = yield from self.system.clients[client].read(name, offset,
                                                               length)
        except ReproError as exc:
            self.rec.close_op(span, self, error=exc)
            return False
        self.rec.close_op(span, self)
        if ref is not None:
            with self.rec.verifying():
                if not np.array_equal(data.data, ref[offset:offset + length]):
                    self.rec.fail(span, f"{self.label}: read {name}"
                                  f"[{offset}:{offset + length}] differs "
                                  "from the numpy reference")
        return True

    def note_storage(self, name: str) -> None:
        """Record Table 2's cost for ``name``: server bytes per file byte."""
        report = self.system.storage_report(name)
        overflow = self.system.overflow_stats(name)
        self.stats["storage.stored_bytes"] += report["total"]
        self.stats["storage.file_bytes"] += \
            self.system.manager.files[name].size
        self.stats["redundancy.overflow_live_bytes"] += overflow["live"]
        self.stats["redundancy.overflow_fragmentation_bytes"] += \
            overflow["fragmentation"]


class Recorder:
    """Everything one repeat of one workload measured."""

    def __init__(self, workload: str, profiler=None, rpc_counter=None) -> None:
        self.workload = workload
        self.profiler = profiler
        #: ``[n]`` bumped per PVFSClient.rpc call (traced repeats only)
        self.rpc_counter = rpc_counter
        self.rpcs = 0
        self.runs: List[Run] = []
        self.spans: List[dict] = []
        self.phase_host: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.setup_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.environments = 0
        #: a workload that needs the environments others create (the
        #: chaos campaign builds its own systems) sets this to a list
        self.keep_envs: Optional[list] = None
        #: sha256 of the inputs generated from the seed
        self.input_digest = ""
        #: counters a workload sets directly (faults.*, analysis.*, ...)
        self.extra: Dict[str, float] = defaultdict(float)
        self._phase_span: Optional[int] = None
        self._profiling = False
        self._verify_cpu = 0.0

    def on_env(self, env) -> None:
        """``repro.sim.engine`` environment observer."""
        self.environments += 1
        if self.keep_envs is not None:
            self.keep_envs.append(env)

    # -- spans -----------------------------------------------------------
    def open_span(self, name: str, run: Optional[Run],
                  sim_start: Optional[float] = None) -> dict:
        span = {"name": name, "workload": self.workload,
                "scheme": run.scheme if run else None,
                "run": run.label if run else None,
                "client": None, "op_id": len(self.spans), "parent": None,
                "sim_start": sim_start, "sim_end": None}
        self.spans.append(span)
        return span

    def open_op(self, kind: str, run: Run, client: int) -> dict:
        span = self.open_span(kind, run, sim_start=run.system.env.now)
        span["client"] = client
        span["parent"] = self._phase_span
        return span

    def close_op(self, span: dict, run: Run,
                 error: Optional[Exception] = None) -> None:
        span["sim_end"] = run.system.env.now
        self.attempted += 1
        self.latency[run.scheme].append(span["sim_end"] - span["sim_start"])
        if error is not None:
            self.fail(span, f"{run.label}: {span['name']} raised "
                      f"{type(error).__name__}: {error}")

    def count_ops(self, ops: int) -> None:
        """Ops the program issued itself (BTIO ranks, a rebuild, a plan)."""
        self.attempted += ops

    def fail(self, span: Optional[dict], message: str, ops: int = 1) -> None:
        self.failed += ops
        if span is not None:
            span["failed"] = message
        if len(self.failures) < 8:
            self.failures.append(message)

    # -- host time -------------------------------------------------------
    @contextmanager
    def host_phase(self, name: str, span: dict):
        """Charge the enclosed host time to phase ``name``.

        The oracle's comparisons inside the phase (:meth:`verifying`)
        are charged to ``verify`` instead, and only a timed phase runs
        under the profiler.
        """
        timed = name in TIMED_PHASES
        self._phase_span = span["op_id"]
        verify_wall0, verify_cpu0 = self.phase_host["verify"], self._verify_cpu
        rpc0 = self.rpc_counter[0] if self.rpc_counter else 0
        self._profiling = timed and self.profiler is not None
        if self._profiling:
            self.profiler.enable()
        cpu0 = time.process_time()
        span["host_start"] = time.perf_counter()
        try:
            yield
        finally:
            span["host_end"] = time.perf_counter()
            cpu = time.process_time() - cpu0
            if self._profiling:
                self.profiler.disable()
                self._profiling = False
            self._phase_span = None
            wall = span["host_end"] - span["host_start"] \
                - (self.phase_host["verify"] - verify_wall0)
            cpu -= self._verify_cpu - verify_cpu0
            self.phase_host[name] += wall
            if timed:
                self.wall_s += wall
                self.cpu_s += cpu
                if self.rpc_counter:
                    self.rpcs += self.rpc_counter[0] - rpc0
            elif name == "populate":
                self.setup_s += wall

    @contextmanager
    def setup(self):
        """Host time spent building systems and inputs (no simulation)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - t0

    @contextmanager
    def verifying(self):
        """The oracle at work: outside ``wall_s`` and outside the profile."""
        if self._profiling:
            self.profiler.disable()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_host["verify"] += time.perf_counter() - t0
            self._verify_cpu += time.process_time() - cpu0
            if self._profiling:
                self.profiler.enable()

    # -- results ---------------------------------------------------------
    def by_scheme(self, key: str, scheme: Optional[str] = None) -> float:
        return sum(run.stats.get(key, 0.0) for run in self.runs
                   if scheme is None or run.scheme == scheme)

    def digest(self) -> str:
        """sha256 over every simulated statistic this repeat read."""
        blob = {
            "runs": [[run.label, run.sim_s, sorted(run.stats.items())]
                     for run in self.runs],
            "spans": [[s["name"], s["run"], s["client"], s["sim_start"],
                       s["sim_end"]] for s in self.spans],
            "extra": sorted(self.extra.items()),
            "attempted": self.attempted, "failed": self.failed,
        }
        return hashlib.sha256(
            json.dumps(blob, sort_keys=True).encode()).hexdigest()

    def simulated_metrics(self) -> Dict[str, Optional[float]]:
        """Every metric that is exact for a fixed seed.

        ``None`` marks a metric the workload does not define (a scheme it
        does not run, a percentile with too few ops behind it).
        """
        out: Dict[str, Optional[float]] = {}
        total = self.by_scheme

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        for scheme in SCHEMES:
            runs = [r for r in self.runs if r.scheme == scheme]
            sim_s = sum(r.sim_s for r in runs)
            user = total("client.bytes_written", scheme) \
                + total("client.bytes_read", scheme)
            out[f"sim_mb_s.{scheme}"] = \
                mbps(user, sim_s) if sim_s > 0 else None
            if scheme != "raid0":
                file_bytes = total("storage.file_bytes", scheme)
                out[f"storage.stored_per_user_byte.{scheme}"] = (
                    total("storage.stored_bytes", scheme) / file_bytes
                    if file_bytes else None)
        out["hybrid_stored_per_user_byte"] = \
            out["storage.stored_per_user_byte.hybrid"]
        for scheme in ("raid5", "hybrid"):
            lat = sorted(self.latency.get(scheme, ()))
            enough = len(lat) >= MIN_OPS_FOR_P99
            out[f"sim_op_p50_ms.{scheme}"] = \
                median(lat) * 1e3 if enough else None
            # 1% of the ops (ten or more) lie beyond it
            out[f"sim_op_p99_ms.{scheme}"] = \
                lat[-(len(lat) // 100) - 1] * 1e3 if enough else None

        dispatched = total("sim.events_dispatched")
        out["sim.environments"] = self.environments
        out["sim.events_scheduled"] = total("sim.events_scheduled")
        out["sim.events_dispatched"] = dispatched
        out["sim.events_per_op"] = ratio(dispatched, self.attempted)

        written = total("client.bytes_written")
        user = written + total("client.bytes_read")
        out["pvfs.net_bytes_per_user_byte"] = ratio(total("net.bytes"), user)
        for name in ("coalesced_fragments", "rpc_timeouts", "failfast_rpcs",
                     "degraded_reads", "degraded_writes"):
            out[f"pvfs.{name}"] = total(f"client.{name}")

        util: Dict[str, float] = defaultdict(float)
        for run in self.runs:
            if run.sim_s <= 0:
                continue
            for key, value in run.stats.items():
                kind, _, node = key.partition(".")
                side = "client" if node.startswith("client") else "server"
                if kind in ("tx", "rx"):
                    value /= run.nic_bandwidth
                    name = f"{side}_nic_{kind}"
                elif kind in ("disk_busy", "cpu_busy"):
                    name = f"{side}_{kind[:-5]}"
                else:
                    continue
                util[name] = max(util[name], value / run.sim_s)
        for name in ("client_nic_tx", "server_nic_rx", "server_disk",
                     "server_cpu", "client_cpu"):
            out[f"hw.{name}_util_max"] = util[name]
        out["hw.nic_wait_s"] = total("hw.nic_wait_s")
        hit = total("cache.hit_bytes")
        out["hw.cache_hit_ratio"] = ratio(hit, hit + total("cache.miss_bytes"))
        out["hw.cache_throttle_s"] = total("cache.throttle_time")
        for name in ("evicted_bytes", "writeback_bytes",
                     "partial_block_reads"):
            out[f"hw.cache_{name}"] = total(f"cache.{name}")
        out["hw.disk_seeks"] = total("disk.seeks")

        out["redundancy.lock_wait_s"] = total("redundancy.lock_wait_s")
        for name in ("full_stripe_bytes", "partial_stripe_bytes",
                     "overflow_write_bytes", "overflow_read_bytes",
                     "reclaims"):
            out[f"redundancy.{name}"] = total(f"hybrid.{name}")
        for name in ("overflow_live_bytes", "overflow_fragmentation_bytes"):
            out[f"redundancy.{name}"] = total(f"redundancy.{name}")
        out["redundancy.rebuild_sim_s"] = sum(
            s["sim_end"] - s["sim_start"] for s in self.spans
            if s["name"] == "rebuild")
        out["redundancy.scrub_errors"] = self.extra["redundancy.scrub_errors"]
        out["storage.server_write_bytes_per_user_byte"] = \
            ratio(total("cache.write_bytes"), written)
        for name in ("faults.plans_run", "faults.faults_fired",
                     "faults.ops_unacked", "analysis.sanitizer_reports"):
            out[name] = self.extra[name]
        return out

    def host_metrics(self) -> Dict[str, float]:
        """Per-layer metrics in host time, from this (untraced) repeat."""
        out = {f"phase_host_s.{name}": value
               for name, value in self.phase_host.items()}
        dispatched = self.by_scheme("sim.events_dispatched")
        out["sim.host_us_per_event"] = \
            self.wall_s * 1e6 / dispatched if dispatched else 0.0
        rebuild_s = self.phase_host["rebuild"]
        out["redundancy.rebuild_mb_per_host_s"] = \
            mbps(self.extra["redundancy.rebuilt_bytes"], rebuild_s)
        return out


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def layer_of(filename: str, funcname: str) -> str:
    """The layer a cProfile entry's self time belongs to."""
    if "numpy" in funcname or f"{os.sep}numpy{os.sep}" in filename:
        return "numpy"
    if filename.startswith(_REPRO_DIR):
        package = filename[len(_REPRO_DIR):].split(os.sep)[0]
        return package if package in _PACKAGE_LAYERS else "workloads"
    return "other"


def traced_metrics(profiler, rec: Recorder,
                   untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics only a traced repeat can give.

    ``calls.<L>`` counts frame entries as cProfile reports them, so one
    resume of a generator counts as one entry; ``pvfs.rpcs_per_op``
    counts real calls (see :func:`counting_rpcs`).
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(REPRO_LAYERS, 0)
    payload_calls = 0
    payload_file = os.path.join(_REPRO_DIR, "storage", "payload.py")
    for (filename, _line, funcname), (_cc, ncalls, tottime, _ct, _callers) \
            in pstats.Stats(profiler).stats.items():
        layer = layer_of(filename, funcname)
        self_s[layer] += tottime
        if layer in calls and not funcname.startswith("_"):
            calls[layer] += ncalls
        if filename == payload_file:
            payload_calls += ncalls
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"host_self_s.{layer}"] = self_s[layer]
    for layer in REPRO_LAYERS:
        out[f"calls.{layer}"] = calls[layer]
    ops = max(rec.attempted, 1)
    out["pvfs.rpcs_per_op"] = rec.rpcs / ops
    out["storage.payload_calls_per_op"] = payload_calls / ops
    out["trace_overhead_ratio"] = rec.wall_s / untraced_wall_s
    return out


@contextmanager
def counting_rpcs():
    """Count calls of ``PVFSClient.rpc`` (one per message on the wire).

    ``rpc`` is a generator function, and cProfile counts every resume of
    a generator as a call, so the traced repeat counts the calls itself
    through a plain wrapper.
    """
    from repro.pvfs.client import PVFSClient

    original = PVFSClient.rpc
    counter = [0]

    def rpc(self, target, request):
        counter[0] += 1
        return original(self, target, request)

    PVFSClient.rpc = rpc
    try:
        yield counter
    finally:
        PVFSClient.rpc = original


def pin_malloc_mmap_threshold() -> None:
    """Keep glibc's mmap threshold at its default instead of adaptive.

    glibc raises the threshold whenever a larger mmapped block is freed,
    after which blocks of that size come from the heap and stay
    resident.  Whether that happens turned on details as small as the
    spelling of the script's path: one chaos campaign peaked at 51 or at
    74 MiB.  Setting the threshold, even to its default of 128 KiB,
    switches the adaptation off.  A no-op where libc is not glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_mmap_threshold = -3
    mallopt(m_mmap_threshold, 128 * 1024)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MiB
