"""Shared resources for simulation processes: FIFO servers and stores.

``Resource`` models a multi-server station with FIFO queueing (an MDS CPU,
a disk spindle).  ``Store`` is an unbounded FIFO buffer of items with
blocking ``get`` (an MDS request inbox).  Both are deliberately simple: the
paper's storage model only needs average latencies with queueing (§5.1).

With the environment's settled-event fast lane on, the uncontended
``Resource.request()`` and item-available ``Store.get()`` return
*inline-settled* events (value frozen, never on the calendar) that the
process layer consumes without a heap round-trip, and
:meth:`Resource.acquire` collapses the whole uncontended
request/hold/release dance into a single timeout.  The contended paths are
byte-for-byte the reference implementation in both modes, so FIFO queueing
order never changes.
"""

from __future__ import annotations

from collections import deque
from sys import getrefcount
from typing import Any, Deque, Generator

from .engine import Environment, Event, URGENT, _POOL_MAX


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Yield it from a process to block until granted, then call
    :meth:`Resource.release` (or use :meth:`Resource.use`).
    """

    __slots__ = ()


class Resource:
    """``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the claim is granted."""
        env = self.env
        if self._in_use < self.capacity:
            self._in_use += 1
            if env._fastlane:
                # Inline-settled grant: the answer was known synchronously,
                # so skip the calendar entirely.  An uncontended grant was
                # an URGENT event — dispatched before any NORMAL event at
                # the same instant — so resuming the requester immediately
                # preserves the reference dispatch order.
                pool = env._request_pool
                if pool:
                    env.pool_hits += 1
                    req = pool.pop()
                    req.callbacks = []
                    req._ok = True
                    req._defused = False
                else:
                    env.pool_allocs += 1
                    req = Request(env)
                req._triggered = True
                req._scheduled_at = env.now
                req._inline = True
                return req
            req = Request(env)
            req.succeed(priority=URGENT)
            return req
        req = Request(env)
        self._waiting.append(req)
        return req

    def release(self) -> None:
        """Return a slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching granted request")
        if self._waiting:
            nxt = self._waiting.popleft()  # slot transfers; _in_use unchanged
            env = self.env
            if env._fastlane:
                # Synchronous handoff: the waiter resumes right here
                # instead of via an URGENT heap round-trip, then its
                # Request is recycled once nothing else can see it.
                env.fast_resumes += 1
                nxt._settle_inline(None)
                pool = env._request_pool
                if len(pool) < _POOL_MAX and getrefcount(nxt) == 2:
                    nxt._value = None
                    pool.append(nxt)
            else:
                nxt.succeed(priority=URGENT)
        else:
            self._in_use -= 1

    def cancel(self, req: Request) -> bool:
        """Withdraw a not-yet-granted request. Returns True if it was queued."""
        try:
            self._waiting.remove(req)
            return True
        except ValueError:
            return False

    def acquire(self, hold_time: float) -> "Event | None":
        """Collapsed :meth:`use`: uncontended claim + hold as ONE timeout.

        Returns a timeout whose dispatch releases the slot (the release
        callback was appended first, so it runs before the waiting process
        resumes — exactly when the reference ``use`` path released), or
        ``None`` when the resource is contended or the fast lane is off;
        callers fall back to ``yield from use(...)`` in that case.
        """
        env = self.env
        if env._fastlane and self._in_use < self.capacity:
            self._in_use += 1
            hold = env.timeout(hold_time)
            hold.callbacks.append(self._on_hold_done)
            return hold
        return None

    def _on_hold_done(self, _event: Event) -> None:
        self.release()

    def use(self, hold_time: float) -> Generator[Event, Any, None]:
        """Sub-process: acquire a slot, hold it ``hold_time``, release it.

        Usage from a process body::

            yield from disk.use(cfg.disk_read_s)

        Uncontended with the fast lane on this is a single timeout event
        (via :meth:`acquire`); otherwise it is the reference
        request/hold/release event sequence.

        An exception thrown into the generator while the slot is held (an
        :class:`~repro.sim.process.Interrupt`) releases the slot before it
        propagates.  ``GeneratorExit`` does not: the garbage collector
        closes a worker abandoned mid-hold once its simulation is gone,
        and a release then would hand the slot to another worker and run
        the dead simulation inside the collection.
        """
        hold = self.acquire(hold_time)
        if hold is not None:
            yield hold
            return
        yield self.request()
        try:
            yield self.env.timeout(hold_time)
        except GeneratorExit:
            raise
        except BaseException:
            self.release()
            raise
        self.release()


class Store:
    """Unbounded FIFO buffer with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event carrying the next item.
    Waiting getters are served strictly in arrival order.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            getter = self._getters.popleft()
            env = self.env
            if env._fastlane:
                # Synchronous handoff: the blocked getter resumes right
                # here with the item, no URGENT heap round-trip.
                env.fast_resumes += 1
                getter._settle_inline(item)
                pool = env._event_pool
                if len(pool) < _POOL_MAX and getrefcount(getter) == 2:
                    getter._value = None
                    pool.append(getter)
            else:
                getter.succeed(item, priority=URGENT)
        else:
            self._items.append(item)

    def _put_from_event(self, event: Event) -> None:
        """Timeout callback adapter: put the event's value into the store.

        Lets a delayed delivery ride the delivering timeout itself (the
        payload travels as the timeout value) instead of allocating a
        fresh closure per message.
        """
        self.put(event._value)

    def get(self) -> Event:
        """Event that fires with the next item (immediately if available)."""
        env = self.env
        if self._items:
            if env._fastlane:
                # Inline-settled: the item is handed over synchronously
                # (the reference path's URGENT wakeup, minus the calendar).
                pool = env._event_pool
                if pool:
                    env.pool_hits += 1
                    ev = pool.pop()
                    ev.callbacks = []
                    ev._ok = True
                    ev._defused = False
                else:
                    env.pool_allocs += 1
                    ev = Event(env)
                ev._value = self._items.popleft()
                ev._triggered = True
                ev._scheduled_at = env.now
                ev._inline = True
                return ev
            ev = Event(env)
            ev.succeed(self._items.popleft(), priority=URGENT)
            return ev
        ev = Event(env)
        self._getters.append(ev)
        return ev

    def get_nowait(self) -> Any:
        """Next item, or ``None`` if the buffer is empty (never blocks).

        Lets a consumer drain every already-queued item in one wakeup
        instead of paying one event per item (batch inbox draining).
        """
        return self._items.popleft() if self._items else None
