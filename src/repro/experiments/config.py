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
from typing import Dict, Optional, Tuple, Union

from .._fastpath import FASTPATH_ENV, fastpath_enabled
from ..mds import SimParams
from ..mds.messages import OpType
from ..model.backend import MODEL_ENV, parse_model_env
from ..proxy import ProxySpec
from ..sim.backend import KERNEL_ENV, parse_kernel_env
from .workload import WorkloadSpec, normalize_workload

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
    count when ``REPRO_PARALLEL=<n>`` named one.
    """

    fastpath: bool
    parallel: Optional[bool]
    parallel_workers: Optional[int]
    scale: float
    #: kernel backend gate (:func:`repro.sim.backend.parse_kernel_env`
    #: semantics: ``None`` default-reference, ``"reference"``,
    #: ``"compiled"`` or ``"auto"``)
    kernel: Optional[str] = None
    #: model backend gate (:func:`repro.model.backend.parse_model_env`
    #: semantics, same token set as ``kernel``)
    model: Optional[str] = None


def env_gates(config: "Optional[ExperimentConfig]" = None, *,
              default_scale: float = 1.0) -> EnvGates:
    """Resolve every runtime gate in one documented place.

    Precedence, per gate: **explicit config field > env var > default**.

    * ``fastpath`` — no config field exists (the fast lane is pure
      memoisation, never a per-experiment knob): ``REPRO_FASTPATH``
      (default on, see :data:`repro._fastpath.FASTPATH_ENV`).
    * ``parallel`` — ``config.parallel`` when set, else ``REPRO_PARALLEL``
      (:func:`parse_parallel_env`), else ``None`` (auto).
    * ``scale`` — ``config.scale`` when a config is given (the field is
      always explicit on a config), else ``REPRO_SCALE``, else
      ``default_scale``.
    * ``kernel`` — ``config.kernel`` when set, else ``REPRO_KERNEL``
      (:func:`repro.sim.backend.parse_kernel_env`), else ``None``
      (reference).  ``compiled``/``auto`` still degrade silently to the
      reference kernel when the extension is unavailable — resolution to
      an actual backend happens in :func:`repro.sim.backend.resolve_kernel`.
    * ``model`` — ``config.model`` when set, else ``REPRO_MODEL``
      (:func:`repro.model.backend.parse_model_env`), else ``None``
      (reference).  Same silent-fallback contract as ``kernel``;
      resolution happens in :func:`repro.model.backend.resolve_model`.
    """
    parallel, workers = parse_parallel_env(os.environ.get(PARALLEL_ENV))
    if config is not None and config.parallel is not None:
        parallel = config.parallel
    scale = config.scale if config is not None else env_scale(default_scale)
    kernel = parse_kernel_env(os.environ.get(KERNEL_ENV))
    if config is not None and config.kernel is not None:
        kernel = parse_kernel_env(config.kernel)
    model = parse_model_env(os.environ.get(MODEL_ENV))
    if config is not None and config.model is not None:
        model = parse_model_env(config.model)
    return EnvGates(fastpath=fastpath_enabled(), parallel=parallel,
                    parallel_workers=workers, scale=scale,
                    kernel=kernel, model=model)


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
    think_time_s: float = 0.006  # keeps the cluster near saturation (§5.3)

    # per-MDS cache sizing: exactly one mechanism applies.
    #   cache_fraction — slots = fraction × total metadata (Fig. 4 axis);
    #   cache_capacity_per_mds — fixed absolute slots (Fig. 2 scaling:
    #     "fixing MDS memory and scaling the entire system").
    cache_fraction: Optional[float] = None
    cache_capacity_per_mds: Optional[int] = 400

    # run timing (×scale for duration)
    warmup_s: float = 2.0
    duration_s: float = 4.0

    # workload: a typed spec (ClosedLoopSpec / OpenLoopSpec), or — legacy,
    # deprecated — a kind string combined with the flat knobs below
    # (think_time_s / workload_args / op_weights), which maps onto an
    # equivalent ClosedLoopSpec via the warn-once shim in
    # repro.experiments.workload.
    workload: Union[str, WorkloadSpec] = "general"
    workload_args: Dict[str, float] = field(default_factory=dict)
    op_weights: Optional[Dict[OpType, float]] = None

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

    # event-kernel backend (repro.sim.backend): None defers to the
    # REPRO_KERNEL env gate; "reference" pins the pure-python kernel,
    # "compiled"/"auto" prefer the C extension.  Never affects results —
    # the compiled kernel is bit-identical to the reference by contract
    # (and falls back to it when the extension is unavailable).
    kernel: Optional[str] = None

    # model backend (repro.model.backend): None defers to the REPRO_MODEL
    # env gate; "reference" pins the pure-python cache/memo/popularity
    # structures, "compiled"/"auto" prefer the C extension.  Same
    # bit-identity and silent-fallback contract as ``kernel``.
    model: Optional[str] = None

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

    def workload_spec(self) -> WorkloadSpec:
        """The workload as a validated typed spec.

        Folds the legacy flat-knob form (string ``workload`` plus
        ``think_time_s``/``workload_args``/``op_weights``) into the
        equivalent :class:`~repro.experiments.workload.ClosedLoopSpec`,
        warning once per process; typed specs validate and pass through.
        """
        return normalize_workload(self.workload,
                                  think_time_s=self.think_time_s,
                                  workload_args=self.workload_args,
                                  op_weights=self.op_weights)

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)
