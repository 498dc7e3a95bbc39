"""A small SimPy-like discrete-event simulation kernel.

Generator functions are simulation *processes*; they ``yield`` events
(timeouts, other processes, resource requests, ``AllOf`` joins) and are
resumed when those events trigger.  The kernel is deterministic: events
scheduled for the same instant fire in schedule order.
"""

from repro.sim.engine import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import FifoServer, Resource

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "Resource",
    "FifoServer",
]
