"""Open-loop load generation: arrivals at an offered rate, not a think loop.

A closed-loop client (:class:`~repro.clients.client.Client`) can never push
the cluster past saturation — each client waits for its reply, so offered
load self-limits to service capacity.  An :class:`OpenLoopSource` injects
requests at its configured arrival rate *regardless of completions*: it
never blocks on a reply, so queues (or, with admission control, drop
counters) absorb the difference between offered and served load.  This is
the "millions of users" load shape: each simulated source stands in for
thousands of nominal users whose aggregate request stream the arrival
process models.

Two arrival processes (:class:`~repro.experiments.workload.OpenLoopSpec`):

* ``poisson`` — memoryless interarrival gaps at the per-source rate.
* ``bursty`` — Poisson arrivals modulated by heavy-tailed (Pareto) on/off
  periods.  Aggregating many on/off sources with heavy-tailed period
  lengths is the classic construction of self-similar traffic; during ON
  periods the rate rises to ``rate / on_fraction`` so the long-run offered
  rate is preserved.

Everything is deterministic per seed: each source draws only from its own
named RNG stream (``source.<i>``), and completions are absorbed through
event callbacks, which the kernel dispatches in schedule order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..metrics import BucketCounter
from ..mds.messages import OVERLOAD_ERROR, MdsRequest, OpType
from ..namespace.path import Path
from ..sim import URGENT, Event
from .client import Client, ClientStats, Workload

if TYPE_CHECKING:  # pragma: no cover — avoids a clients<->experiments cycle
    from ..experiments.workload import OpenLoopSpec


@dataclass
class OpenLoopStats(ClientStats):
    """Per-source accounting: offered vs completed vs dropped vs good.

    ``ops_completed``/``errors``/latencies (inherited) count non-dropped
    completions; ``offered`` counts submissions; ``dropped`` counts
    admission-control rejections; ``good_by_time`` buckets completions
    that met the SLO, so goodput can be measured over a window.
    """

    offered: int = 0
    dropped: int = 0
    slo_violations: int = 0
    hotspot_ops: int = 0
    bucket_width_s: float = 0.1
    good_by_time: BucketCounter = field(init=False)
    #: (completion time, latency) of every ok completion — lets the
    #: summary compute latency percentiles *inside* the measure window
    #: (the run-wide tracer histogram would fold cold-start warmup
    #: latencies into an overload figure's tail)
    ok_latency_by_time: List[Tuple[float, float]] = field(
        default_factory=list)

    def __post_init__(self) -> None:
        self.good_by_time = BucketCounter(self.bucket_width_s)


class PoissonArrivals:
    """Memoryless interarrival gaps at ``rate_per_source`` ops/s."""

    def __init__(self, rate_per_source: float) -> None:
        if rate_per_source <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate_per_source = rate_per_source

    def next_delay(self, source: "OpenLoopSource") -> float:
        return source.rng.expovariate(self.rate_per_source)


class BurstyArrivals:
    """Pareto-modulated on/off Poisson arrivals (self-similar aggregate).

    Period lengths are Pareto with tail index ``alpha`` scaled to the
    requested *means* (``on_s``/``off_s``); arrivals occur only during ON
    periods, at ``rate / on_fraction``.  A gap that would overrun the
    current ON period restarts in the next one, which thins the tail end
    of each burst slightly — an accepted approximation of the modulated
    process that keeps generation O(1) per arrival.
    """

    def __init__(self, rate_per_source: float, on_s: float, off_s: float,
                 alpha: float) -> None:
        if rate_per_source <= 0:
            raise ValueError("arrival rate must be positive")
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1 (finite mean periods)")
        self.on_s = on_s
        self.off_s = off_s
        self.alpha = alpha
        #: Pareto(alpha, xm=1) has mean alpha/(alpha-1); scale so the
        #: drawn period lengths average the configured means
        self._period_scale = (alpha - 1.0) / alpha
        on_fraction = on_s / (on_s + off_s)
        self.peak_rate = rate_per_source / on_fraction

    def next_delay(self, source: "OpenLoopSource") -> float:
        rng = source.rng
        state = source.scratch.get("burst")
        if state is None:
            state = source.scratch["burst"] = {"on_end": 0.0, "next_on": 0.0}
        t = source.env.now
        while True:
            if t >= state["on_end"]:
                start = max(t, state["next_on"])
                on_len = (self.on_s * self._period_scale
                          * rng.paretovariate(self.alpha))
                off_len = (self.off_s * self._period_scale
                           * rng.paretovariate(self.alpha))
                state["on_end"] = start + on_len
                state["next_on"] = start + on_len + off_len
                t = start
            gap = rng.expovariate(self.peak_rate)
            if t + gap <= state["on_end"]:
                return (t + gap) - source.env.now
            t = state["next_on"]


def make_arrivals(spec: OpenLoopSpec, n_sources: int):
    """The arrival process one source of ``n_sources`` should follow."""
    per_source = spec.offered_rate_ops_per_s / n_sources
    if spec.arrival == "poisson":
        return PoissonArrivals(per_source)
    if spec.arrival == "bursty":
        return BurstyArrivals(per_source, spec.burst_on_s, spec.burst_off_s,
                              spec.burst_alpha)
    raise ValueError(f"unknown arrival process {spec.arrival!r}")


class OpenLoopWorkload:
    """Arrival process + op model + optional flash-crowd overlay.

    Delegates op generation to an ``inner`` closed-style workload (the op
    *mix* is orthogonal to the arrival *process*); ``next_delay`` comes
    from the arrival process.  When a hotspot is configured, each op in
    the hotspot window is redirected to the hot target with probability
    ``spec.hotspot_prob`` — a flash crowd riding an open-loop stream.
    """

    def __init__(self, inner: Workload, arrivals, spec: OpenLoopSpec,
                 hot_target: Optional[Path] = None) -> None:
        self.inner = inner
        self.arrivals = arrivals
        self.spec = spec
        self.hot_target = hot_target if spec.hotspot_prob > 0 else None

    def next_delay(self, source: "OpenLoopSource") -> float:
        return self.arrivals.next_delay(source)

    def next_op(self, source: "OpenLoopSource") -> Optional[MdsRequest]:
        target = self.hot_target
        if target is not None:
            spec = self.spec
            now = source.env.now
            if (spec.hotspot_start_s <= now
                    < spec.hotspot_start_s + spec.hotspot_duration_s
                    and source.rng.random() < spec.hotspot_prob):
                source.stats.hotspot_ops += 1
                return source.make_request(OpType.OPEN, target)
        return self.inner.next_op(source)


class OpenLoopSource(Client):
    """A load generator that never waits for its own replies.

    Subclasses :class:`Client` for the routing/absorption machinery
    (location cache, stats, tracer integration) but replaces the closed
    request loop.  A source is no process: each arrival is a callback on
    the timeout that models its gap, which submits the request and
    schedules the next arrival, and completions arrive via callbacks on
    the done event.
    """

    def __init__(self, env, client_id: int, cluster, workload: Workload,
                 rng, spec: OpenLoopSpec, uid: Optional[int] = None) -> None:
        super().__init__(env, client_id, cluster, workload, rng, uid=uid)
        self.spec = spec
        self.stats: OpenLoopStats = OpenLoopStats(
            bucket_width_s=cluster.params.stats_bucket_s)
        self._slo_s = spec.slo_latency_s

    def start(self) -> None:
        # The first gap is drawn when the kernel starts, as a process's
        # body would be: a boot event at the current instant.
        boot = self.env.event()
        boot.callbacks.append(self._next_arrival)
        boot.succeed(priority=URGENT)

    def _next_arrival(self, _event: Event) -> None:
        """Schedule the next arrival; a zero gap submits at once."""
        workload = self.workload
        while True:
            delay = workload.next_delay(self)
            if delay > 0:
                self.env.timeout(delay).callbacks.append(self._arrive)
                return
            self._submit()

    def _arrive(self, gap: Event) -> None:
        self._submit()
        self._next_arrival(gap)

    def _submit(self) -> None:
        request = self.workload.next_op(self)
        if request is None:
            return
        request.client_id = self.client_id
        request.uid = self.uid
        cluster = self.cluster
        tracer = cluster.tracer
        if tracer is not None and tracer.enabled:
            request.trace = tracer.maybe_trace(
                request.op, request.path, self.client_id, self.env.now)
        dest = self._destination(request)
        self.stats.offered += 1
        done = cluster.submit(dest, request)
        done.callbacks.append(
            lambda ev, req=request: self._complete(req, ev._value))

    def _complete(self, request: MdsRequest, reply) -> None:
        stats = self.stats
        if not reply.ok and reply.error == OVERLOAD_ERROR:
            # a deliberate shed, not an FS error: count it as a drop and
            # keep it out of the latency/location books (the fast reject
            # would otherwise *improve* the percentiles)
            stats.dropped += 1
            tracer = self.cluster.tracer
            if tracer is not None and request.trace is not None:
                tracer.finish(request.trace, now=self.env.now, ok=False)
            return
        self._absorb(request, reply)
        if reply.ok:
            stats.ok_latency_by_time.append((self.env.now, reply.latency_s))
            if reply.latency_s <= self._slo_s:
                stats.good_by_time.add(self.env.now)
            else:
                stats.slo_violations += 1


__all__ = [
    "BurstyArrivals",
    "OpenLoopSource",
    "OpenLoopStats",
    "OpenLoopWorkload",
    "PoissonArrivals",
    "make_arrivals",
]
