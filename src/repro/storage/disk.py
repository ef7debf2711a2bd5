"""Average-latency disk device model.

The paper deliberately simplifies storage to "average disk latencies and
transactional throughputs only" (§5.1).  ``DiskDevice`` is exactly that: a
FIFO service station where each transaction holds the device for a fixed
mean service time.  Queueing delay emerges from contention; no seek or
rotational modelling is attempted (nor was it in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..sim import Environment, Event, Resource


@dataclass(slots=True)
class DiskStats:
    """Cumulative transaction counts and busy time for one device."""

    reads: int = 0
    writes: int = 0
    read_busy_s: float = 0.0
    write_busy_s: float = 0.0

    @property
    def transactions(self) -> int:
        return self.reads + self.writes

    @property
    def busy_s(self) -> float:
        return self.read_busy_s + self.write_busy_s


class DiskDevice:
    """One storage device with fixed mean read/write transaction times."""

    def __init__(self, env: Environment, *, read_s: float, write_s: float,
                 name: str = "disk") -> None:
        if read_s < 0 or write_s < 0:
            raise ValueError("latencies must be non-negative")
        self.env = env
        self.name = name
        self.read_s = read_s
        self.write_s = write_s
        self.stats = DiskStats()
        self._server = Resource(env, capacity=1)
        # In-flight (units, hold) of the flattened fast path.  Single slot is
        # safe: capacity is 1, so at most one collapsed transaction holds the
        # device, and the finish callback clears it before releasing.
        self._active: "tuple[int, float] | None" = None

    @property
    def queue_length(self) -> int:
        """Transactions currently waiting for the device."""
        return self._server.queue_length

    # -- flattened fast path --------------------------------------------------
    def read_event(self, units: int = 1) -> "Event | None":
        """Uncontended read collapsed to ONE timeout event, or ``None``.

        Stats and the device release are applied by a callback when the
        timeout fires (before the waiting process resumes), matching the
        reference sub-process ordering.  Callers fall back to
        ``yield from read(units)`` when this returns ``None`` (device busy,
        or fast lane off).
        """
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        env = self.env
        server = self._server
        if env._fastlane and server._in_use < server.capacity:
            server._in_use += 1
            hold = self.read_s * units
            timeout = env.timeout(hold)
            self._active = (units, hold)
            timeout.callbacks.append(self._finish_read)
            return timeout
        return None

    def write_event(self, units: int = 1) -> "Event | None":
        """Uncontended write collapsed to ONE timeout event, or ``None``."""
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        env = self.env
        server = self._server
        if env._fastlane and server._in_use < server.capacity:
            server._in_use += 1
            hold = self.write_s * units
            timeout = env.timeout(hold)
            self._active = (units, hold)
            timeout.callbacks.append(self._finish_write)
            return timeout
        return None

    def _finish_read(self, _event: Event) -> None:
        units, hold = self._active  # type: ignore[misc]
        self._active = None
        self.stats.reads += units
        self.stats.read_busy_s += hold
        self._server.release()

    def _finish_write(self, _event: Event) -> None:
        units, hold = self._active  # type: ignore[misc]
        self._active = None
        self.stats.writes += units
        self.stats.write_busy_s += hold
        self._server.release()

    # -- reference (queued) path ----------------------------------------------
    def read(self, units: int = 1) -> Generator[Event, Any, None]:
        """Perform ``units`` back-to-back read transactions (a sub-process)."""
        fast = self.read_event(units)  # validates units; None when queued
        if fast is not None:
            yield fast
            return
        yield self._server.request()
        hold = self.read_s * units
        try:
            yield self.env.timeout(hold)
        except GeneratorExit:
            raise  # closed by the collector: see Resource.use
        except BaseException:
            self._server.release()
            raise
        self.stats.reads += units
        self.stats.read_busy_s += hold
        self._server.release()

    def write(self, units: int = 1) -> Generator[Event, Any, None]:
        """Perform ``units`` back-to-back write transactions (a sub-process)."""
        fast = self.write_event(units)
        if fast is not None:
            yield fast
            return
        yield self._server.request()
        hold = self.write_s * units
        try:
            yield self.env.timeout(hold)
        except GeneratorExit:
            raise  # closed by the collector: see Resource.use
        except BaseException:
            self._server.release()
            raise
        self.stats.writes += units
        self.stats.write_busy_s += hold
        self._server.release()

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` the device spent busy."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, self.stats.busy_s / elapsed_s)
