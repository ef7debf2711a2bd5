"""Discrete-event simulation kernel (substrate S1 in DESIGN.md).

A small, deterministic, dependency-free simpy-like kernel:

* :class:`Environment` — event calendar and clock.
* :class:`Event` / :class:`Timeout` — triggerable conditions.
* :class:`Process` — generator-coroutine processes that ``yield`` events.
* :class:`Resource` / :class:`Store` — FIFO servers and blocking buffers.
* :class:`RngStreams` — named reproducible random streams.
"""

from .engine import Environment, Event, Timeout, NORMAL, URGENT
from .errors import EventAlreadyTriggered, ProcessCrashed, SimulationError
from .process import Interrupt, Process
from .resources import Request, Resource, Store
from .rng import RngStreams, derive_seed

__all__ = [
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "NORMAL",
    "Process",
    "ProcessCrashed",
    "Request",
    "Resource",
    "RngStreams",
    "SimulationError",
    "Store",
    "Timeout",
    "URGENT",
    "derive_seed",
]
