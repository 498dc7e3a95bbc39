"""A small SimPy-like discrete-event simulation kernel.

Generator functions are simulation *processes*; they ``yield`` events
(timeouts, other processes, resource requests, condition events) and are
resumed when those events trigger.  The kernel is deterministic: events
scheduled for the same instant fire in schedule order.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import FifoLock, FifoServer, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "Resource",
    "FifoServer",
    "FifoLock",
    "Store",
]
