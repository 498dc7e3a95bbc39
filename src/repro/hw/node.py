"""A cluster node: NIC + disk + page cache + CPU under one name."""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.hw.cache import PageCache
from repro.hw.cpu import Cpu
from repro.hw.disk import Disk
from repro.hw.link import NIC
from repro.hw.params import HardwareProfile


class Node:
    """One physical machine of the simulated cluster."""

    def __init__(self, env: Environment, name: str,
                 profile: HardwareProfile) -> None:
        self.env = env
        self.name = name
        self.profile = profile
        self.nic = NIC(env, name, profile.network)
        self.disk = Disk(env, name, profile.disk)
        self.cache = PageCache(env, name, profile.cache, self.disk)
        self.cpu = Cpu(env, name, profile.cpu)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.name} ({self.profile.name})>"
