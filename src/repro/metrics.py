"""Run-wide counters and timers.

Each :class:`~repro.sim.engine.Environment` owns one :class:`Metrics`
(``env.metrics``), and every model built on that environment counts into
it; experiments read it (as ``System.metrics``) to report bandwidth, byte
amplification, lock overhead, cache behaviour and storage use.  Counters
are plain dict entries so new models can add their own without schema
churn.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.units import mbps


class Metrics:
    """Cumulative counters for one simulation run."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)
        #: per-node transmitted payload bytes (client NIC saturation checks)
        self.node_tx_bytes: Dict[str, int] = defaultdict(int)
        self.node_rx_bytes: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def add(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def get(self, key: str) -> float:
        return self.counters.get(key, 0.0)

    def record_tx(self, node: str, nbytes: int) -> None:
        self.node_tx_bytes[node] += nbytes
        self.counters["net.bytes"] += nbytes

    def record_rx(self, node: str, nbytes: int) -> None:
        self.node_rx_bytes[node] += nbytes

    # ------------------------------------------------------------------
    def bandwidth(self, bytes_key: str, seconds: float) -> float:
        """MB/s for the bytes accumulated under ``bytes_key``."""
        return mbps(self.get(bytes_key), seconds)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy, for assertions and reports."""
        snap = dict(self.counters)
        snap.update({f"tx.{k}": v for k, v in self.node_tx_bytes.items()})
        snap.update({f"rx.{k}": v for k, v in self.node_rx_bytes.items()})
        return snap

    def diff(self, before: Dict[str, float]) -> Dict[str, float]:
        """Counters accumulated since ``before`` (a prior snapshot)."""
        now = self.snapshot()
        keys = set(now) | set(before)
        return {k: now.get(k, 0.0) - before.get(k, 0.0)
                for k in keys if now.get(k, 0.0) != before.get(k, 0.0)}
