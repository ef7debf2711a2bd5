"""Discrete-event simulation core: events, timeouts, and the environment.

The kernel follows the classic event-calendar design (a binary heap keyed on
``(time, priority, sequence)``) with generator-coroutine processes layered on
top in :mod:`repro.sim.process`.  It is deliberately small, dependency-free
and deterministic: two runs with the same seed and configuration produce
identical event orderings, which the test-suite and benchmark harness rely
on.

Hot-path notes
--------------
The calendar stores 3-tuples ``(time, key, event)`` where ``key`` packs the
priority and a monotonically-increasing sequence number into one integer
(``priority << 56 | seq``).  Lexicographic tuple order is therefore exactly
the historical ``(time, priority, seq)`` order — priority-major, FIFO-minor
at equal times — but each heap sift compares at most two ints instead of
three fields, and each entry is one element smaller.  :class:`Timeout`
bypasses the generic ``succeed``/``schedule`` ceremony entirely (it is born
triggered), and :meth:`Environment.run` inlines :meth:`Environment.step`
with the queue and ``heappop`` bound to locals; both paths are covered by
the event-order golden tests in ``tests/sim/test_engine_hotpath.py``.

Settled-event fast lane
-----------------------
When the fast lane is on (:mod:`repro._fastpath`, read once per environment),
producers whose outcome is known synchronously — an uncontended
``Resource.request()``, a ``Store.get()`` with an item buffered — return an
*inline-settled* event: triggered, value frozen, due now, but never pushed
onto the calendar.  :class:`~repro.sim.process.Process` consumes such an
event without a heap round-trip, ``all_of``/``any_of`` treat it exactly
like any other already-settled event, and ``run(until=...)`` returns its
value immediately.  The fast lane also enables freelist pooling: the run
loop recycles :class:`Timeout` and plain :class:`Event` objects whose
refcount proves no one can observe them again, and the process fast lane
recycles the inline events it consumed.  ``kernel_stats()`` reports events
scheduled, fast-lane resumes and pool reuse so the churn reduction is
visible; with the fast lane off every structure and code path is exactly
the reference heap kernel.

Two more elisions ride the same switch, each saving one calendar entry:

* :meth:`Environment.succeed_later` delivers a message (an MDS or proxy
  reply one network hop out) by scheduling the destination event itself,
  value attached, instead of a timer whose callback succeeds it;
* a process that finishes with nobody waiting on it (empty callback
  list) settles in place — triggered, value frozen, processed, due now —
  instead of pushing a completion entry that would dispatch nothing.
  ``yield proc``, ``run(until=proc)`` and ``all_of``/``any_of`` see it
  as any other processed event.  A process that *fails* still goes
  through the calendar, so a crash nobody handles raises from ``run()``.
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Callable, Iterable, Optional

from .errors import EventAlreadyTriggered, StopSimulation

#: Scheduling priorities.  Lower sorts earlier at equal times.  URGENT is used
#: internally (e.g. resource handoffs) so that bookkeeping completes before
#: ordinary activity scheduled at the same instant.
URGENT = 0
NORMAL = 1

#: Bits reserved for the FIFO sequence inside a packed heap key.  2**56
#: schedules per run is far beyond any simulation here; priority occupies
#: the bits above so it dominates the tie-break.
_PRIO_SHIFT = 56
_NORMAL_KEY = NORMAL << _PRIO_SHIFT

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Freelist bound per pooled class: enough to absorb steady-state churn,
#: small enough that a burst cannot pin memory.
_POOL_MAX = 256

_INF = float("inf")


class Event:
    """A condition that may be *triggered* once with a value or an error.

    Callbacks appended to :attr:`callbacks` run, in order, when the event is
    processed by the environment's loop.  After processing, the event is
    *defused*: its value (or exception) is frozen and further ``succeed`` /
    ``fail`` calls raise :class:`EventAlreadyTriggered`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_defused",
                 "_scheduled_at", "_inline")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._defused = False
        self._scheduled_at: float = _INF  # calendar due time
        self._inline = False  # settled synchronously, never on the calendar

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the environment has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, *, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire successfully at the current time."""
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, *, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire with ``exception`` at the current time."""
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def _settle_inline(self, value: Any = None) -> None:
        """Fast-lane handoff: succeed now and run callbacks synchronously.

        The event never touches the calendar — it settles at the current
        instant and its waiters (typically one suspended process) resume
        immediately, eliding the URGENT heap round-trip the reference path
        pays.  Callers are responsible for dispatch-order equivalence
        (golden-ordering and fixed-seed equivalence tests arbitrate); only
        success paths use this, failures always go through the calendar.
        """
        self._triggered = True
        self._ok = True
        self._value = value
        self._scheduled_at = self.env._now
        self._inline = True
        callbacks = self.callbacks
        self.callbacks = None  # mark processed
        if callbacks:
            for callback in callbacks:
                callback(self)

    def trigger_from(self, other: "Event") -> None:
        """Trigger this event with the outcome of an already-settled event."""
        if other._ok:
            self.succeed(other._value)
        else:
            self.fail(other._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from creation.

    Timeouts are the kernel's single most-allocated event type (every think
    time, service time and network hop is one), so construction takes a fast
    path: the event is born triggered and is pushed straight onto the
    calendar, skipping the generic ``succeed`` -> ``schedule`` method chain.
    FIFO ordering at equal ``(time, priority)`` is identical to an event
    triggered through :meth:`Event.succeed` because both draw from the same
    sequence counter.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        # Inlined Event.__init__ + succeed() + schedule().
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._defused = False
        self._inline = False
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        when = env._now + delay
        self._scheduled_at = when
        _heappush(env._queue, (when, _NORMAL_KEY | seq, self))


class Environment:
    """Execution environment: the event calendar and simulation clock.

    ``fastlane`` controls the settled-event fast lane and freelist pooling;
    ``None`` (the default) reads :func:`repro._fastpath.fastpath_enabled`
    once at construction.
    With the lane off the kernel is exactly the reference heap
    implementation — the golden-equivalence tests rely on that.
    """

    __slots__ = ("_now", "_queue", "_seq", "_fastlane", "_event_pool",
                 "_timeout_pool", "_request_pool", "fast_resumes",
                 "pool_hits", "pool_allocs")

    def __init__(self, initial_time: float = 0.0, *,
                 fastlane: Optional[bool] = None) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0  # tie-breaker preserving FIFO order at equal (t, prio)
        if fastlane is None:
            from .._fastpath import fastpath_enabled

            fastlane = fastpath_enabled()
        self._fastlane = fastlane
        #: freelists for the hot event classes (fast lane only)
        self._event_pool: list[Event] = []
        self._timeout_pool: list[Timeout] = []
        self._request_pool: list[Event] = []  # Request instances
        #: kernel counters (see :meth:`kernel_stats`)
        self.fast_resumes = 0   # generator resumes without a heap round-trip
        self.pool_hits = 0      # events served from a freelist
        self.pool_allocs = 0    # fresh allocations on pooled paths

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def fastlane(self) -> bool:
        """True when the settled-event fast lane and pools are active."""
        return self._fastlane

    def kernel_stats(self) -> dict[str, float]:
        """Kernel churn counters (pay-for-use: plain ints, read on demand).

        ``events_scheduled`` is the number of calendar entries created (the
        sequence counter — every heap push draws one).  ``fast_resumes``
        counts generator resumes served inline without a heap round-trip.
        ``pool_hits`` / ``pool_allocs`` split pooled-path constructions into
        freelist reuses vs fresh allocations; ``pool_reuse_rate`` is the
        fraction reused (0.0 when the pools were never exercised).
        """
        pooled = self.pool_hits + self.pool_allocs
        return {
            "fastlane": self._fastlane,
            "events_scheduled": self._seq,
            "fast_resumes": self.fast_resumes,
            "pool_hits": self.pool_hits,
            "pool_allocs": self.pool_allocs,
            "pool_reuse_rate": (self.pool_hits / pooled) if pooled else 0.0,
        }

    # -- construction helpers ----------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        if self._fastlane:
            pool = self._event_pool
            if pool:
                self.pool_hits += 1
                ev = pool.pop()
                ev.callbacks = []
                ev._value = None
                ev._ok = True
                ev._triggered = False
                ev._defused = False
                ev._scheduled_at = _INF
                ev._inline = False
                return ev
            self.pool_allocs += 1
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` units from now."""
        if self._fastlane:
            pool = self._timeout_pool
            if pool:
                if delay < 0:
                    raise ValueError(f"negative delay: {delay!r}")
                self.pool_hits += 1
                t = pool.pop()
                t.callbacks = []
                t._value = value
                t._ok = True
                t._triggered = True
                t._defused = False
                t.delay = delay
                seq = self._seq
                self._seq = seq + 1
                when = self._now + delay
                t._scheduled_at = when
                _heappush(self._queue, (when, _NORMAL_KEY | seq, t))
                return t
            self.pool_allocs += 1
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Start a new :class:`~repro.sim.process.Process` from a generator."""
        from .process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event that succeeds once every event in ``events`` has succeeded.

        The result value is the list of individual event values, in input
        order.  If any constituent fails, the combined event fails with that
        exception (first failure wins).

        Already-settled constituents — triggered with a calendar due time at
        or before ``now``, whether or not their callbacks have run yet —
        contribute immediately at construction time, in input order; such an
        event's value is frozen, so there is nothing to wait for.  Pending
        constituents (including future :class:`Timeout`\\ s, which are
        *triggered* from birth but not yet due) contribute when the kernel
        processes them.
        """
        events = list(events)
        combined = self.event()
        remaining = len(events)
        values: list[Any] = [None] * remaining
        if remaining == 0:
            combined.succeed([])
            return combined

        def make_cb(index: int):
            def _cb(ev: Event) -> None:
                nonlocal remaining
                if combined._triggered:
                    return
                if not ev._ok:
                    combined.fail(ev._value)
                    return
                values[index] = ev._value
                remaining -= 1
                if remaining == 0:
                    combined.succeed(list(values))

            return _cb

        now = self._now
        for i, ev in enumerate(events):
            if ev._triggered and ev._scheduled_at <= now:
                # Already settled (value frozen, due now): contribute
                # immediately instead of waiting for callback dispatch.
                make_cb(i)(ev)
            else:
                ev.callbacks.append(make_cb(i))
        return combined

    def any_of(self, events: Iterable[Event]) -> Event:
        """Event that settles as soon as the first of ``events`` settles.

        Ordering is explicit and mirrors :meth:`all_of`'s already-settled
        handling: if any constituent is already settled at construction time
        — triggered with a calendar due time at or before ``now``, whether
        processed or still awaiting callback dispatch; its value is frozen
        either way — the combined event settles immediately from the
        **first such event in input order**.  Otherwise the first
        constituent the kernel dispatches wins (a future :class:`Timeout`
        counts as pending until it is due).
        """
        events = list(events)
        combined = self.event()
        if not events:
            combined.succeed(None)
            return combined

        def _cb(ev: Event) -> None:
            if not combined._triggered:
                combined.trigger_from(ev)

        now = self._now
        for ev in events:
            if ev._triggered and ev._scheduled_at <= now:
                combined.trigger_from(ev)
                return combined
        for ev in events:
            ev.callbacks.append(_cb)
        return combined

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, *, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Place a triggered event on the calendar ``delay`` units from now."""
        seq = self._seq
        self._seq = seq + 1
        when = self._now + delay
        event._scheduled_at = when
        _heappush(self._queue, (when, (priority << _PRIO_SHIFT) | seq, event))

    def succeed_later(self, event: Event, value: Any, delay: float) -> None:
        """Succeed ``event`` with ``value`` ``delay`` units from now.

        The message-delivery primitive (a reply arriving one network hop
        out).  With the fast lane on it costs one calendar entry: the
        event itself is scheduled at its arrival time, already carrying
        ``value``.  With the lane off it is the reference pair, a timer
        whose callback succeeds the event on arrival.
        """
        if self._fastlane:
            event._triggered = True
            event._ok = True
            event._value = value
            self.schedule(event, delay=delay)
        else:
            timer = self.timeout(delay)
            timer.callbacks.append(lambda _ev: event.succeed(value))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advance the clock to it)."""
        when, _key, event = _heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it instead of silently
            # swallowing a crashed process.
            exc = event._value
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the event loop.

        ``until`` may be:

        * ``None`` — run until the calendar empties;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).
        """
        if until is None:
            stop_at = float("inf")
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_at = float("inf")
            stop_event = until

            def _stop(ev: Event) -> None:
                ev._defused = True
                raise StopSimulation(ev)

            if stop_event.processed or (stop_event._inline
                                        and stop_event._triggered):
                # processed, or settled inline (never on the calendar):
                # the outcome is already frozen
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            stop_event.callbacks.append(_stop)
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at!r} is in the past (now={self._now!r})")

        # The loop below is step() inlined with the queue, heappop and the
        # boundary bound to locals: attribute loads dominate the per-event
        # cost at this call volume (one iteration per simulated event).
        # With the fast lane on, dispatched Timeout/Event objects whose
        # refcount proves them unreachable (the loop local plus the
        # getrefcount argument) are recycled onto the freelists.
        queue = self._queue
        heappop = _heappop
        recycle = self._fastlane
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        try:
            while queue and queue[0][0] <= stop_at:
                when, _key, event = heappop(queue)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if recycle:
                    cls = event.__class__
                    if cls is Timeout:
                        if (len(timeout_pool) < _POOL_MAX
                                and getrefcount(event) == 2):
                            event._value = None  # don't pin the payload
                            timeout_pool.append(event)
                    elif cls is Event:
                        if (len(event_pool) < _POOL_MAX
                                and getrefcount(event) == 2):
                            event._value = None
                            event_pool.append(event)
        except StopSimulation as stop:
            ev: Event = stop.value  # type: ignore[assignment]
            if ev._ok:
                return ev._value
            raise ev._value from None
        if stop_event is not None:
            raise RuntimeError(
                "run(until=<event>) exhausted the calendar before the event "
                "triggered")
        if stop_at != float("inf"):
            self._now = max(self._now, stop_at)
        return None
