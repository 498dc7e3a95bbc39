"""Calibrated hardware models: NICs, disks, page caches, CPUs, nodes."""

from repro.hw.cache import PageCache
from repro.hw.cpu import Cpu
from repro.hw.disk import Disk
from repro.hw.link import NIC
from repro.hw.node import Node
from repro.hw.params import (
    CacheParams,
    CpuParams,
    DiskParams,
    HardwareProfile,
    NetworkParams,
    PROFILES,
    get_profile,
)

__all__ = [
    "PageCache",
    "Cpu",
    "Disk",
    "NIC",
    "Node",
    "CacheParams",
    "CpuParams",
    "DiskParams",
    "HardwareProfile",
    "NetworkParams",
    "PROFILES",
    "get_profile",
]
