"""One simulated CSAR cluster: nodes, daemons, clients, and controls.

The :class:`System` is the top-level public object: build it from a
:class:`~repro.csar.config.CSARConfig`, drive client processes (directly
or through :mod:`repro.workloads`), inspect metrics and storage, inject
failures, rebuild.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.csar.config import CSARConfig
from repro.errors import ConfigError
from repro.hw.node import Node
from repro.pvfs.client import PVFSClient
from repro.pvfs.iod import IOD
from repro.pvfs.layout import StripeLayout
from repro.pvfs.manager import Manager
from repro.redundancy.base import make_scheme
from repro.sim.engine import Environment


class System:
    """A running (simulated) CSAR deployment."""

    def __init__(self, config: CSARConfig) -> None:
        self.config = config
        self.env = Environment()
        #: the run's counters: the environment's ledger
        self.metrics = self.env.metrics
        profile = config.resolved_profile
        self.layout = StripeLayout(config.stripe_unit, config.num_servers)

        self.iods: List[IOD] = [
            self._server(i) for i in range(config.num_servers)]
        self.server_nodes: List[Node] = [iod.node for iod in self.iods]
        self.client_nodes: List[Node] = [
            Node(self.env, f"client{i}", profile)
            for i in range(config.num_clients)]
        self.manager_node = Node(self.env, "mgr", profile)
        self.manager = Manager(self.manager_node, self.layout, config.scheme)
        scheme = make_scheme(config.scheme, config)
        self.clients: List[PVFSClient] = [
            PVFSClient(i, node, self.iods, self.manager, scheme)
            for i, node in enumerate(self.client_nodes)]
        self.env.emit("system.built", self)

    def _server(self, index: int) -> IOD:
        """A fresh server node (flusher started when configured) and
        its I/O daemon."""
        config = self.config
        node = Node(self.env, f"iod{index}", config.resolved_profile)
        if config.background_flusher:
            node.cache.start_flusher()
        return IOD(index, node, stripe_unit=config.stripe_unit,
                   content_mode=config.content_mode,
                   write_buffering=config.write_buffering,
                   locking=config.locking)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def client(self, index: int = 0) -> PVFSClient:
        return self.clients[index]

    def run(self, *processes) -> Any:
        """Run client generator(s) to completion; returns the last value.

        Accepts raw generators; they are spawned as simulation processes
        and the environment runs until all finish.
        """
        procs = [self.env.process(p) for p in processes]
        if not procs:
            raise ConfigError("System.run() needs at least one process")
        done = self.env.all_of(procs)
        values = self.env.run(until=done)
        # The awaited processes finished and nothing user-visible is
        # in flight: the redundancy invariants must hold right now.
        self.env.emit("system.quiescent")
        return values[-1] if len(values) == 1 else values

    def timed(self, *processes) -> tuple[float, Any]:
        """Like :meth:`run` but returns ``(elapsed_seconds, value)``."""
        t0 = self.env.now
        value = self.run(*processes)
        return self.env.now - t0, value

    # ------------------------------------------------------------------
    # cluster-wide controls
    # ------------------------------------------------------------------
    def drop_all_caches(self) -> None:
        """Sync and drop every server's page cache (between phases)."""
        def dropper(node):
            yield from node.cache.drop()
        self.run(*[dropper(n) for n in self.server_nodes])

    def sync_all(self) -> None:
        """Flush all dirty data on every server."""
        def syncer(node):
            yield from node.cache.sync()
        self.run(*[syncer(n) for n in self.server_nodes])

    def fail_server(self, index: int) -> None:
        self.iods[index].fail()
        self.metrics.add("failures.injected")

    def replace_server(self, index: int) -> None:
        """Swap in replacement hardware for a failed server (hot spare).

        The new daemon starts failed with an empty disk; run
        :func:`repro.redundancy.recovery.rebuild_server` afterwards to
        repopulate it from the surviving redundancy.
        """
        if not self.iods[index].failed:
            raise ConfigError(
                f"server {index} is not failed; refusing replacement")
        iod = self._server(index)
        iod.fail()
        # The dead daemon may outlive this call (a handler or a message
        # in flight still holds it); its disk must not.
        self.iods[index].wipe()
        self.server_nodes[index] = iod.node
        self.iods[index] = iod
        for client in self.clients:
            client.iods[index] = iod
        self.metrics.add("failures.replaced")

    # ------------------------------------------------------------------
    # accounting (Table 2)
    # ------------------------------------------------------------------
    def storage_report(self, file: str) -> Dict[str, int]:
        """Per-category and total local storage for one PVFS file.

        Categories follow the iods' local files: ``data``, ``red``
        (mirror or parity), ``ovf``/``ovfm`` (Hybrid overflow + mirror).
        ``total`` is the paper's Table 2 number — the sum of the file
        sizes at the I/O servers.
        """
        out: Dict[str, int] = {"data": 0, "red": 0, "ovf": 0, "ovfm": 0}
        for iod in self.iods:
            for kind, size in iod.storage_of(file).items():
                out[kind] += size
        out["total"] = sum(out.values())
        return out

    def overflow_stats(self, file: str) -> Dict[str, int]:
        """Live/allocated/fragmented overflow bytes across servers."""
        live = allocated = 0
        for iod in self.iods:
            table = iod.overflow.get(file)
            if table is not None:
                live += table.live_bytes
                allocated += table.allocated_bytes
        return {"live": live, "allocated": allocated,
                "fragmentation": allocated - live}
