"""Exception hierarchy for the CSAR reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """A discrete-event simulation invariant was violated."""


class ConfigError(ReproError):
    """Invalid configuration (stripe geometry, hardware profile, workload)."""


class ProtocolError(ReproError):
    """A malformed or out-of-sequence message in the PVFS/CSAR protocol."""


class FileSystemError(ReproError):
    """Base class for file-system level failures."""


class FileNotFound(FileSystemError):
    """The named PVFS file does not exist."""


class FileExists(FileSystemError):
    """The named PVFS file already exists and exclusive creation was asked."""


class ServerFailed(FileSystemError):
    """An I/O server has been marked failed and cannot serve requests."""


class DataLoss(FileSystemError):
    """Data could not be recovered (e.g. two failures under single-fault
    tolerant redundancy, or any failure under RAID0)."""


class RpcTimeout(ServerFailed):
    """A client RPC exceeded its per-request deadline.

    Subclasses :class:`ServerFailed` so a timed-out server rides the same
    degraded-mode machinery (suspect lists, degraded reads, tolerant
    writes) as an explicitly failed one.
    """


class DiskFault(FileSystemError):
    """An injected disk error (the simulated medium returned EIO)."""


class FaultPlanError(ConfigError):
    """A fault plan is malformed or references unknown triggers/targets."""


class LockProtocolError(ProtocolError):
    """The distributed parity-lock protocol was used out of order."""
