"""Experiment configuration.

One :class:`ExperimentConfig` describes a complete simulation: cluster size
and strategy, namespace scale, client population, workload, and durations.
The paper's scaling methodology (§5.3) — fix per-MDS memory, scale file
system size and client base with the cluster — is captured by the
``*_per_mds`` knobs, so a sweep over ``n_mds`` automatically scales the
whole system.

``scale`` multiplies the expensive dimensions (namespace, clients,
duration) so the same experiment code serves quick CI benches and full
paper-scale runs (set ``REPRO_SCALE`` or pass ``--scale``).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Optional

from ..mds import SimParams
from ..proxy import ProxySpec
from .workload import ClosedLoopSpec, OpenLoopSpec, WorkloadSpec

#: Experiment scale factor: multiplies namespace, population and duration.
SCALE_ENV = "REPRO_SCALE"

#: Sweep worker count: unset lets the sweep use every CPU it can, an
#: integer pins the worker count, and "0" or "1" runs the sweep serially.
PARALLEL_ENV = "REPRO_PARALLEL"


def env_scale(default: float = 1.0) -> float:
    """Experiment scale factor from the REPRO_SCALE environment variable."""
    raw = os.environ.get(SCALE_ENV)
    if raw is None:
        return default
    value = float(raw)
    if value <= 0:
        raise ValueError(f"{SCALE_ENV} must be positive, got {raw!r}")
    return value


def parse_parallel_env(raw: Optional[str]) -> Optional[int]:
    """Interpret a ``REPRO_PARALLEL`` value as a worker count.

    Unset or blank gives ``None`` (the sweep picks its own count); a
    non-negative integer is the pinned count, where ``0`` and ``1`` both
    mean serial.  Anything else raises.
    """
    if raw is None or not raw.strip():
        return None
    if not raw.strip().isdigit():
        raise ValueError(f"{PARALLEL_ENV}={raw!r} is not a worker count "
                         "(a non-negative integer)")
    return int(raw)


@dataclass(frozen=True)
class EnvGates:
    """Resolved values of the runtime environment gates.

    ``parallel_workers`` is the pinned sweep worker count, or ``None``
    when ``REPRO_PARALLEL`` is unset.
    """

    parallel_workers: Optional[int]
    scale: float


def env_gates(config: "Optional[ExperimentConfig]" = None, *,
              default_scale: float = 1.0) -> EnvGates:
    """Resolve every runtime gate in one documented place.

    Precedence, per gate: **explicit config field > env var > default**.

    * ``parallel_workers`` — no config field exists (serial and pooled
      sweeps are bit-identical): ``REPRO_PARALLEL``
      (:func:`parse_parallel_env`), else ``None``.
    * ``scale`` — ``config.scale`` when a config is given (the field is
      always explicit on a config), else ``REPRO_SCALE``, else
      ``default_scale``.
    """
    workers = parse_parallel_env(os.environ.get(PARALLEL_ENV))
    scale = config.scale if config is not None else env_scale(default_scale)
    return EnvGates(parallel_workers=workers, scale=scale)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to build and run one simulation."""

    strategy: str = "DynamicSubtree"
    n_mds: int = 4
    seed: int = 42

    # namespace scale (×n_mds, ×scale)
    users_per_mds: int = 4
    files_per_user: int = 120
    shared_tree_files: int = 200

    # client population (×n_mds, ×scale)
    clients_per_mds: int = 24

    # per-MDS cache sizing: exactly one mechanism applies.
    #   cache_fraction — slots = fraction × total metadata (Fig. 4 axis);
    #   cache_capacity_per_mds — fixed absolute slots (Fig. 2 scaling:
    #     "fixing MDS memory and scaling the entire system").
    cache_fraction: Optional[float] = None
    cache_capacity_per_mds: Optional[int] = 400

    # run timing (×scale for duration)
    warmup_s: float = 2.0
    duration_s: float = 4.0

    # workload: a typed spec (repro.experiments.workload); the default is
    # the general-purpose closed loop whose 6 ms think time keeps the
    # cluster near saturation (§5.3)
    workload: WorkloadSpec = field(default_factory=ClosedLoopSpec)

    # adaptive proxy tier in front of the cluster (None = clients talk to
    # the MDS nodes directly, exactly the pre-proxy wiring)
    proxy: Optional[ProxySpec] = None

    # observability: fraction of requests carrying a span trace (0.0 keeps
    # the hot path untraced and event-for-event identical to an untraced
    # run; latency histograms are recorded regardless), and the capacity
    # of the in-memory trace ring buffer.
    trace_sample_rate: float = 0.0
    trace_buffer: int = 4096

    params: SimParams = field(default_factory=SimParams)
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.workload, (ClosedLoopSpec, OpenLoopSpec)):
            raise TypeError(
                "ExperimentConfig.workload must be a ClosedLoopSpec or "
                f"OpenLoopSpec, got {type(self.workload).__name__}")

    # -- derived ------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return max(1, round(self.users_per_mds * self.n_mds * self.scale))

    @property
    def n_files_per_user(self) -> int:
        return max(5, round(self.files_per_user * min(1.0, self.scale * 2)))

    @property
    def n_clients(self) -> int:
        return max(1, round(self.clients_per_mds * self.n_mds * self.scale))

    @property
    def run_until_s(self) -> float:
        return self.warmup_s + self.duration_s * max(0.25, self.scale)

    @property
    def measure_window(self) -> "tuple[float, float]":
        return (self.warmup_s, self.run_until_s)

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)
