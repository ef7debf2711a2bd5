"""Generator-coroutine processes for the simulation kernel.

A process wraps a Python generator that ``yield``\\ s :class:`~repro.sim.engine.Event`
instances.  Each yielded event suspends the process until the event settles;
a succeeded event's value is sent back into the generator, a failed event's
exception is thrown into it.  The process itself is an event that settles
with the generator's return value, so processes compose: one process can
``yield`` another to wait for it.
"""

from __future__ import annotations

from sys import getrefcount
from typing import Any, Generator

from .backend import EVENT_TYPES
from .engine import Environment, Event, NORMAL, URGENT, _POOL_MAX
from .errors import SimulationError, StopSimulation
from .resources import Request

ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(SimulationError):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulation process.

    Instances are created through :meth:`Environment.process`; the wrapped
    generator is started on the next kernel step (an "initialize" event), so
    a process body never runs re-entrantly inside its creator.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: Environment, generator: ProcessGenerator,
                 name: str | None = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process() requires a generator, got {type(generator).__name__}"
                " (did you call a plain function instead of a generator"
                " function?)")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        boot = Event(env)
        boot.callbacks.append(self._resume)
        boot.succeed(priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is detached; if it later fires
        it is simply ignored by this process.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        target = self._waiting_on
        if target is not None and not target.processed:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None
        kick = Event(self.env)
        kick.callbacks.append(self._resume_with_interrupt(cause))
        kick.succeed(priority=URGENT)

    def _resume_with_interrupt(self, cause: Any):
        def _cb(_event: Event) -> None:
            self._advance(throw=Interrupt(cause))

        return _cb

    # -- kernel interface ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Hot path: one call per process hop.  Slot reads are kept to a
        # minimum and the settled event's frozen fields are read directly.
        if self._triggered:
            return  # stale wakeup after the process already finished
        waiting_on = self._waiting_on
        if waiting_on is not None and event is not waiting_on:
            return  # stale wakeup after an interrupt re-armed the process
        self._waiting_on = None
        if event._ok:
            self._advance(send=event._value)
        else:
            event._defused = True
            self._advance(throw=event._value)

    def _advance(self, *, send: Any = None, throw: BaseException | None = None) -> None:
        # The loop exists for the settled-event fast lane: when the yielded
        # event was settled inline (uncontended resource grant, buffered
        # store item — triggered, value frozen, never on the calendar) the
        # generator is resumed immediately instead of via a heap round-trip,
        # and the consumed event is recycled onto its freelist once its
        # refcount proves nobody else can observe it.  Dispatch order is
        # unchanged: an inline grant is exactly the URGENT event the heap
        # would have delivered before any NORMAL event at the same instant
        # (golden-ordering tests in tests/sim/ lock this down).
        generator = self._generator
        env = self.env
        while True:
            try:
                if throw is not None:
                    target = generator.throw(throw)
                else:
                    target = generator.send(send)
            except StopIteration as stop:
                if env._fastlane and not self.callbacks:
                    # Nobody waits: settle in place rather than push a
                    # completion entry that would dispatch nothing.
                    self._triggered = True
                    self._value = stop.value
                    self._scheduled_at = env._now
                    self.callbacks = None  # mark processed
                    return
                self.succeed(stop.value, priority=NORMAL)
                return
            except StopSimulation:
                # run(until=<event>) stop raised inside a synchronous
                # handoff chain: let it reach the kernel loop untouched.
                raise
            except BaseException as exc:
                # Propagate to anyone waiting on this process; if nobody is,
                # the kernel will re-raise when it processes the failure.
                self.fail(exc, priority=NORMAL)
                return
            if not isinstance(target, EVENT_TYPES):
                crash = TypeError(
                    f"process {self.name!r} yielded {target!r}; processes must"
                    " yield Event instances")
                generator.close()
                self.fail(crash)
                return
            if target._inline and target.callbacks is not None:
                # Settled inline: consume synchronously, no heap round-trip.
                target.callbacks = None  # mark processed
                env.fast_resumes += 1
                if target._ok:
                    send = target._value
                    throw = None
                else:
                    target._defused = True
                    send = None
                    throw = target._value
                cls = target.__class__
                if cls is Request:
                    pool = env._request_pool
                    if len(pool) < _POOL_MAX and getrefcount(target) == 2:
                        target._value = None
                        pool.append(target)
                elif cls is Event:
                    pool = env._event_pool
                    if len(pool) < _POOL_MAX and getrefcount(target) == 2:
                        target._value = None
                        pool.append(target)
                continue
            if target.callbacks is None:  # processed: resume on the next step
                relay = Event(env)
                relay.callbacks.append(self._resume)
                self._waiting_on = relay
                if target._ok:
                    relay.succeed(target._value, priority=URGENT)
                else:
                    relay.fail(target._value, priority=URGENT)
            else:
                self._waiting_on = target
                target.callbacks.append(self._resume)
            return
