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
from typing import Optional, Tuple

from ..mds import SimParams
from ..proxy import ProxySpec
from ..sim.backend import BACKEND_ENV, REFERENCE, parse_backend_env
from .workload import ClosedLoopSpec, OpenLoopSpec, WorkloadSpec

#: Experiment scale factor: multiplies namespace, population and duration.
SCALE_ENV = "REPRO_SCALE"

#: Sweep execution switch: unset/"auto" picks parallel when it can help,
#: "0"/"off"/"serial"/"false" forces serial, an integer pins worker count.
PARALLEL_ENV = "REPRO_PARALLEL"

_PARALLEL_SERIAL_TOKENS = frozenset({"0", "off", "serial", "false", "no"})
_PARALLEL_AUTO_TOKENS = frozenset({"", "1", "on", "auto", "true", "yes"})


def env_scale(default: float = 1.0) -> float:
    """Experiment scale factor from the REPRO_SCALE environment variable."""
    raw = os.environ.get(SCALE_ENV)
    if raw is None:
        return default
    value = float(raw)
    if value <= 0:
        raise ValueError(f"{SCALE_ENV} must be positive, got {raw!r}")
    return value


def parse_parallel_env(raw: Optional[str]) -> "Tuple[Optional[bool], Optional[int]]":
    """Interpret a ``REPRO_PARALLEL`` value.

    Returns ``(decision, pinned_workers)``: decision ``False`` forces
    serial, ``True`` means parallel with ``pinned_workers`` processes, and
    ``None`` leaves the choice to the auto heuristic.  Raises on tokens
    that are neither a mode word nor a worker count.
    """
    if raw is None:
        return None, None
    token = raw.strip().lower()
    if token in _PARALLEL_SERIAL_TOKENS:
        return False, None
    if token in _PARALLEL_AUTO_TOKENS:
        return None, None
    try:
        pinned = int(token)
    except ValueError:
        raise ValueError(
            f"{PARALLEL_ENV}={raw!r} is neither a mode token nor a "
            "worker count") from None
    if pinned <= 1:
        return False, None
    return True, pinned


@dataclass(frozen=True)
class EnvGates:
    """Resolved values of the runtime environment gates.

    ``parallel`` is ``None`` when the decision is left to the sweep
    executor's auto heuristic; ``parallel_workers`` is the pinned worker
    count when ``REPRO_PARALLEL=<n>`` named one.  ``backend`` is
    ``"reference"`` or ``"compiled"`` (the latter still falls back
    silently when an extension is not built).
    """

    parallel: Optional[bool]
    parallel_workers: Optional[int]
    scale: float
    backend: str


def env_gates(config: "Optional[ExperimentConfig]" = None, *,
              default_scale: float = 1.0) -> EnvGates:
    """Resolve every runtime gate in one documented place.

    Precedence, per gate: **explicit config field > env var > default**.

    * ``parallel`` — ``config.parallel`` when set, else ``REPRO_PARALLEL``
      (:func:`parse_parallel_env`), else ``None`` (auto).
    * ``scale`` — ``config.scale`` when a config is given (the field is
      always explicit on a config), else ``REPRO_SCALE``, else
      ``default_scale``.
    * ``backend`` — no config field exists (the backends are
      bit-identical, never a per-experiment knob): ``REPRO_BACKEND``
      (:func:`repro.sim.backend.parse_backend_env`), else ``reference``.
      It selects both the kernel and the model structures; ``compiled``
      degrades silently per extension when that extension is unavailable
      (:func:`repro.sim.backend.resolve_kernel`,
      :func:`repro.model.backend.resolve_model`).
    """
    parallel, workers = parse_parallel_env(os.environ.get(PARALLEL_ENV))
    if config is not None and config.parallel is not None:
        parallel = config.parallel
    scale = config.scale if config is not None else env_scale(default_scale)
    backend = parse_backend_env(os.environ.get(BACKEND_ENV)) or REFERENCE
    return EnvGates(parallel=parallel, parallel_workers=workers,
                    scale=scale, backend=backend)


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

    # sweep execution: None lets repro.parallel decide (REPRO_PARALLEL /
    # auto); False forces any sweep containing this config to run serially
    # in-process (debugging, CI reproducibility).  Never affects results —
    # serial and parallel runs are bit-identical by contract.
    parallel: Optional[bool] = None

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
