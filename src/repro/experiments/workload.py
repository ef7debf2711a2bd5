"""Typed workload specifications: the ``ExperimentConfig.workload`` API.

The config carries exactly one typed spec:

* :class:`ClosedLoopSpec` — today's clients: one outstanding request per
  client, exponential think times between requests.  Throughput emerges
  from service capacity (§5.1 methodology).
* :class:`OpenLoopSpec` — arrivals are injected at a configured offered
  rate regardless of completions (Poisson, or bursty Pareto-modulated
  on/off), the load shape of "millions of users" that can push the cluster
  past saturation.

Both validate their ``args`` against :data:`WORKLOAD_ARGS`: a key that no
generator reads is an error, not a silent no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

from ..mds.messages import OpType

_GENERAL_ARGS = ("move_dir_prob", "shared_tree_prob", "dir_chmod_fraction",
                 "mkdir_fraction")

#: the ``args`` keys each workload kind's generator reads, by kind
WORKLOAD_ARGS: Dict[str, Tuple[str, ...]] = {
    "general": _GENERAL_ARGS,
    "scaling": _GENERAL_ARGS,
    "shifting": ("victim_node", "shift_time_s", "migrate_fraction"),
    "scientific": ("phase_len_s",),
    "flash": ("start_s", "arrival_jitter_s", "requests_per_client",
              "repeat_think_s"),
}

#: workload kinds understood by the simulation builder
WORKLOAD_KINDS = tuple(WORKLOAD_ARGS)

#: arrival processes an :class:`OpenLoopSpec` can request
ARRIVAL_PROCESSES = ("poisson", "bursty")


def _validate_kind_and_args(kind: str, args: Mapping[str, float]) -> None:
    if kind not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r}; "
                         f"expected one of {WORKLOAD_KINDS}")
    unknown = sorted(set(args) - set(WORKLOAD_ARGS[kind]))
    if unknown:
        raise ValueError(f"unknown args {unknown} for workload kind "
                         f"{kind!r}; accepted keys: {WORKLOAD_ARGS[kind]}")


@dataclass(frozen=True)
class ClosedLoopSpec:
    """A closed-loop client population (the paper's load model).

    Every client keeps exactly one request outstanding and thinks for an
    exponential ``think_time_s`` between requests; the op stream itself is
    produced by the ``kind`` generator (general/scaling/shifting/
    scientific/flash) parameterised by ``args`` and ``op_weights``.
    """

    kind: str = "general"
    think_time_s: float = 0.006
    args: Dict[str, float] = field(default_factory=dict)
    op_weights: Optional[Dict[OpType, float]] = None

    def validate(self) -> "ClosedLoopSpec":
        _validate_kind_and_args(self.kind, self.args)
        if self.think_time_s <= 0:
            raise ValueError("think_time_s must be positive")
        return self


@dataclass(frozen=True)
class OpenLoopSpec:
    """An open-loop arrival stream: load is *offered*, not admitted.

    The offered rate is either explicit (``rate_ops_per_s``) or derived
    from a nominal user population (``nominal_users`` ×
    ``per_user_ops_per_s`` — how "2 million users at 0.008 ops/s each"
    is written down).  ``sources`` simulated generator processes share the
    rate; each draws interarrival gaps from its own RNG stream, so runs
    are deterministic per seed.

    ``arrival='poisson'`` gives memoryless arrivals; ``'bursty'`` modulates
    the Poisson stream with heavy-tailed (Pareto) on/off periods — the
    aggregate of many such sources is the self-similar load shape real
    metadata traffic exhibits.  During ON periods the rate rises to
    ``rate / on_fraction`` so the long-run offered rate is preserved.

    ``slo_latency_s`` defines goodput: completed requests whose
    client-observed latency meets the SLO.  The optional hotspot overlay
    redirects ``hotspot_prob`` of ops to one deep file during
    ``[hotspot_start_s, hotspot_start_s + hotspot_duration_s)`` — the
    flash-crowd scenario under open-loop load.
    """

    kind: str = "general"              # op model feeding the stream
    arrival: str = "poisson"           # poisson | bursty
    rate_ops_per_s: Optional[float] = None
    nominal_users: Optional[int] = None
    per_user_ops_per_s: float = 0.01
    sources: Optional[int] = None      # default: the config's n_clients
    slo_latency_s: float = 0.010

    # bursty arrivals: mean Pareto on/off period lengths and tail index
    burst_on_s: float = 0.2
    burst_off_s: float = 0.8
    burst_alpha: float = 1.5

    # flash-crowd overlay (0.0 disables it)
    hotspot_prob: float = 0.0
    hotspot_start_s: float = 1.0
    hotspot_duration_s: float = 1.0

    args: Dict[str, float] = field(default_factory=dict)
    op_weights: Optional[Dict[OpType, float]] = None

    def validate(self) -> "OpenLoopSpec":
        _validate_kind_and_args(self.kind, self.args)
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {self.arrival!r}; "
                             f"expected one of {ARRIVAL_PROCESSES}")
        if self.rate_ops_per_s is None and self.nominal_users is None:
            raise ValueError(
                "OpenLoopSpec needs rate_ops_per_s or nominal_users")
        if self.rate_ops_per_s is not None and self.rate_ops_per_s <= 0:
            raise ValueError("rate_ops_per_s must be positive")
        if self.nominal_users is not None and self.nominal_users <= 0:
            raise ValueError("nominal_users must be positive")
        if self.per_user_ops_per_s <= 0:
            raise ValueError("per_user_ops_per_s must be positive")
        if self.sources is not None and self.sources < 1:
            raise ValueError("sources must be >= 1")
        if self.slo_latency_s <= 0:
            raise ValueError("slo_latency_s must be positive")
        if self.burst_on_s <= 0 or self.burst_off_s <= 0:
            raise ValueError("burst periods must be positive")
        if self.burst_alpha <= 1.0:
            raise ValueError("burst_alpha must exceed 1 (finite mean)")
        if not 0.0 <= self.hotspot_prob <= 1.0:
            raise ValueError("hotspot_prob must be in [0, 1]")
        return self

    @property
    def offered_rate_ops_per_s(self) -> float:
        """Total offered load, whichever way it was expressed."""
        if self.rate_ops_per_s is not None:
            return self.rate_ops_per_s
        assert self.nominal_users is not None
        return self.nominal_users * self.per_user_ops_per_s

    @property
    def implied_users(self) -> int:
        """The nominal user population this stream stands in for."""
        if self.nominal_users is not None:
            return self.nominal_users
        return max(1, round(self.offered_rate_ops_per_s
                            / self.per_user_ops_per_s))

    def resolved_sources(self, default: int) -> int:
        """Number of generator processes to simulate."""
        return self.sources if self.sources is not None else max(1, default)


WorkloadSpec = Union[ClosedLoopSpec, OpenLoopSpec]

__all__ = [
    "ARRIVAL_PROCESSES",
    "ClosedLoopSpec",
    "OpenLoopSpec",
    "WORKLOAD_ARGS",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
]
