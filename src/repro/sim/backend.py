"""Kernel backend selection: the reference heap kernel or the compiled one.

The event-calendar kernel sits behind a narrow backend seam.  Two
implementations exist:

* ``reference`` — the pure-python kernel in :mod:`repro.sim.engine`,
  untouched, byte-for-byte the implementation every prior PR validated.
* ``compiled`` — a hand-written C extension (``repro.sim._ckernel``)
  holding the calendar (a C array binary heap keyed on
  ``(when, priority << 56 | seq)``), the clock, the sequence counter, the
  ``Timeout`` lifecycle and the inlined run loops, wrapped by
  :class:`CompiledEnvironment` so every pure-python consumer (processes,
  resources) sees the exact :class:`Environment` surface.

Selection: the ``REPRO_BACKEND`` environment variable (one gate for
this kernel and the model structures of :mod:`repro.model.backend`)
accepts ``reference`` (the default) or ``compiled``.  ``compiled``
degrades *silently* to the reference kernel when the extension is
missing or fails to import (no C toolchain, unbuilt checkout), and
every ``Simulation.summary().kernel`` records ``kernel_backend`` /
``compiled_viable`` so a silent fallback is still visible in the
artifacts.  :func:`make_environment` takes an explicit ``kernel=`` gate,
which is how tests and diagnostics select the kernel half alone.

Bit identity
------------
The sequence counter makes every heap key unique, so the calendar induces
a **total order** on scheduled events; any correct binary heap — heapq's
or the C one's — therefore pops the identical sequence, and due times are
computed with the same IEEE-754 double arithmetic either way.  The golden
ordering and fastpath-equivalence suites run parametrized over both
backends to enforce this.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from .engine import Environment, Event, _INF
from .errors import EventAlreadyTriggered, StopSimulation

#: Backend switch for both C extensions (kernel and model): unset or
#: "reference" runs the pure-python implementations, "compiled" prefers
#: the C extensions (silent fallback when unbuilt).
BACKEND_ENV = "REPRO_BACKEND"

REFERENCE = "reference"
COMPILED = "compiled"

_BACKEND_TOKENS = frozenset({REFERENCE, COMPILED})

try:
    from . import _ckernel as _C
except Exception as exc:  # pragma: no cover - host without the built ext
    _C = None
    _CKERNEL_ERROR: Optional[str] = f"{type(exc).__name__}: {exc}"
    CTimeout = None
    #: classes the kernel treats as events (isinstance targets)
    EVENT_TYPES: "tuple[type, ...]" = (Event,)
else:
    _C.configure(EventAlreadyTriggered)
    _CKERNEL_ERROR = None
    #: the C Timeout class (``None`` when the extension is unavailable)
    CTimeout = _C.Timeout
    EVENT_TYPES = (Event, CTimeout)


def compiled_viable() -> bool:
    """True when the compiled kernel extension imported successfully."""
    return _C is not None


def compiled_unavailable_reason() -> Optional[str]:
    """Why the compiled backend cannot run, or ``None`` when it can."""
    return _CKERNEL_ERROR


def parse_backend_env(raw: Optional[str]) -> Optional[str]:
    """Interpret a ``REPRO_BACKEND`` value (or an explicit gate argument).

    Returns ``None`` when unset/empty (default: reference), else one of
    the mode tokens.  Raises on anything else, like the other gates.
    """
    if raw is None:
        return None
    token = raw.strip().lower()
    if not token:
        return None
    if token not in _BACKEND_TOKENS:
        raise ValueError(
            f"{BACKEND_ENV}={raw!r} is not one of "
            f"{sorted(_BACKEND_TOKENS)}")
    return token


def resolve_kernel(gate: Optional[str] = None) -> str:
    """The effective kernel backend for a gate value.

    ``gate`` is ``"reference"``, ``"compiled"`` or ``None``; ``None``
    reads ``REPRO_BACKEND``.  ``compiled`` falls back silently to
    ``reference`` when the extension is unavailable.
    """
    token = (parse_backend_env(gate)
             or parse_backend_env(os.environ.get(BACKEND_ENV)))
    if token == COMPILED and compiled_viable():
        return COMPILED
    return REFERENCE


def make_environment(initial_time: float = 0.0, *,
                     fastlane: Optional[bool] = None,
                     kernel: Optional[str] = None) -> Environment:
    """Construct an :class:`Environment` on the selected kernel backend.

    ``kernel`` is a gate value (:func:`parse_backend_env` semantics);
    ``None`` defers to ``REPRO_BACKEND``.  The reference backend returns a
    plain :class:`Environment`; the compiled backend returns a
    :class:`CompiledEnvironment` exposing the identical surface.
    """
    if resolve_kernel(kernel) == COMPILED:
        return CompiledEnvironment(initial_time, fastlane=fastlane)
    return Environment(initial_time, fastlane=fastlane)


def backend_of(env: Environment) -> str:
    """Which backend built ``env`` (``"reference"`` or ``"compiled"``)."""
    if _C is not None and isinstance(env, CompiledEnvironment):
        return COMPILED
    return REFERENCE


def kernel_info(env: Optional[Environment] = None) -> "dict[str, Any]":
    """The backend-provenance fields summaries and bench reports carry."""
    backend = backend_of(env) if env is not None else resolve_kernel()
    return {"kernel_backend": backend, "compiled_viable": compiled_viable()}


class CompiledEnvironment(Environment):
    """:class:`Environment` running on the C calendar.

    The calendar, clock, sequence counter and run loops live in a
    ``_ckernel.Kernel``; the C-implemented methods are bound straight
    into instance slots (shadowing the base-class definitions) so hot
    callers dispatch into C without a delegating python frame.  The
    python-side pools and counters (``_event_pool``/``_request_pool``,
    ``fast_resumes``, ``pool_hits``/``pool_allocs``) stay plain python
    attributes because :mod:`repro.sim.resources` and
    :mod:`repro.sim.process` mutate them directly — ``kernel_stats``
    merges them with the C-side counters.
    """

    __slots__ = ("_kernel", "timeout", "schedule", "peek", "step")

    def __init__(self, initial_time: float = 0.0, *,
                 fastlane: Optional[bool] = None) -> None:
        if _C is None:
            raise RuntimeError(
                "compiled kernel backend unavailable "
                f"({_CKERNEL_ERROR}); build it with "
                "`python tools/build_kernel.py` or use "
                "REPRO_BACKEND=reference")
        if fastlane is None:
            from .._fastpath import fastpath_enabled

            fastlane = fastpath_enabled()
        self._fastlane = fastlane
        self._event_pool: list = []
        self._timeout_pool: list = []  # surface parity; C pools Timeouts
        self._request_pool: list = []
        self.fast_resumes = 0
        self.pool_hits = 0
        self.pool_allocs = 0
        kernel = _C.Kernel(float(initial_time), bool(fastlane),
                           self._event_pool, Event)
        kernel.set_env(self)
        self._kernel = kernel
        self.timeout = kernel.timeout
        self.schedule = kernel.schedule
        self.peek = kernel.peek
        self.step = kernel.step

    # The clock and sequence counter live in the C kernel; these shadow
    # the base-class slots for the python code that reads them directly
    # (processes and resources read `env._now`, kernel tests `env._seq`).
    @property
    def _now(self) -> float:  # type: ignore[override]
        return self._kernel.now

    @property
    def _seq(self) -> int:  # type: ignore[override]
        return self._kernel.seq

    def kernel_stats(self) -> "dict[str, float]":
        """Reference-shaped churn counters, merged across C and python.

        ``events_scheduled`` is the C sequence counter; ``pool_hits`` /
        ``pool_allocs`` sum the python-side Event/Request pools and the
        C-side Timeout freelist.
        """
        kernel = self._kernel
        hits = self.pool_hits + kernel.pool_hits
        allocs = self.pool_allocs + kernel.pool_allocs
        pooled = hits + allocs
        return {
            "fastlane": self._fastlane,
            "events_scheduled": kernel.seq,
            "fast_resumes": self.fast_resumes,
            "pool_hits": hits,
            "pool_allocs": allocs,
            "pool_reuse_rate": (hits / pooled) if pooled else 0.0,
        }

    def run(self, until: "float | Event | None" = None) -> Any:
        """:meth:`Environment.run` with the loop in C (`run_core`)."""
        if until is None:
            stop_at = _INF
            stop_event = None
        elif isinstance(until, EVENT_TYPES):
            stop_at = _INF
            stop_event = until

            def _stop(ev) -> None:
                ev._defused = True
                raise StopSimulation(ev)

            if stop_event.processed or (stop_event._inline
                                        and stop_event._triggered):
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            stop_event.callbacks.append(_stop)
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self._kernel.now:
                raise ValueError(
                    f"until={stop_at!r} is in the past "
                    f"(now={self._kernel.now!r})")
        try:
            self._kernel.run_core(stop_at)
        except StopSimulation as stop:
            ev = stop.value
            if ev._ok:
                return ev._value
            raise ev._value from None
        if stop_event is not None:
            raise RuntimeError(
                "run(until=<event>) exhausted the calendar before the event "
                "triggered")
        return None


__all__ = [
    "COMPILED",
    "CTimeout",
    "CompiledEnvironment",
    "EVENT_TYPES",
    "BACKEND_ENV",
    "REFERENCE",
    "backend_of",
    "compiled_unavailable_reason",
    "compiled_viable",
    "kernel_info",
    "make_environment",
    "parse_backend_env",
    "resolve_kernel",
]
