"""RAID0: original PVFS striping, no redundancy.

The baseline every figure in the paper normalizes against.  A write is
one :class:`~repro.redundancy.plan.Stripe` portion, and a single server
failure loses data — :class:`~repro.errors.DataLoss` on any read
touching the failed server.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import DataLoss
from repro.pvfs.layout import ServerRange
from repro.redundancy import base
from repro.sim.engine import Event
from repro.storage.payload import Payload


@base.register
class Raid0(base.RedundancyScheme):
    """Plain striping (the unmodified PVFS behaviour)."""

    name = "raid0"

    def degraded_read(self, client, meta,
                      sr: ServerRange) -> Generator[Event, Any, Payload]:
        raise DataLoss(
            f"RAID0 stores no redundancy: bytes on failed server "
            f"{sr.server} are unrecoverable")
        yield  # pragma: no cover - makes this a generator
