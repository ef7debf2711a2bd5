"""Discrete-event simulation kernel (substrate S1 in DESIGN.md).

A small, deterministic, dependency-free simpy-like kernel:

* :class:`Environment` — event calendar and clock.
* :class:`Event` / :class:`Timeout` — triggerable conditions.
* :class:`Process` — generator-coroutine processes that ``yield`` events.
* :class:`Resource` / :class:`Store` — FIFO servers and blocking buffers.
* :class:`RngStreams` — named reproducible random streams.

The calendar itself is swappable (:mod:`repro.sim.backend`): the
pure-python reference kernel above, or a bit-identical compiled C kernel
selected by the ``REPRO_BACKEND`` gate — :func:`make_environment` is the
backend-aware constructor.
"""

from .backend import (BACKEND_ENV, CompiledEnvironment, EVENT_TYPES,
                      backend_of, compiled_viable, kernel_info,
                      make_environment, parse_backend_env, resolve_kernel)
from .engine import Environment, Event, Timeout, NORMAL, URGENT
from .errors import EventAlreadyTriggered, ProcessCrashed, SimulationError
from .process import Interrupt, Process
from .resources import Request, Resource, Store
from .rng import RngStreams, derive_seed

__all__ = [
    "BACKEND_ENV",
    "CompiledEnvironment",
    "EVENT_TYPES",
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
    "backend_of",
    "compiled_viable",
    "derive_seed",
    "kernel_info",
    "make_environment",
    "parse_backend_env",
    "resolve_kernel",
]
