"""The public facade: one import surface for building, running and
observing experiments.

Everything ``examples/`` and ``benchmarks/`` need lives here::

    from repro.api import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(n_mds=4,
                                             trace_sample_rate=1.0))
    print(result.summary.format())        # aggregates + per-op p50/p95/p99
    print(result.traces[0].render())      # where one request's time went

Three layers, lowest first:

* ``build_simulation(config) -> Simulation`` — wire everything, run it
  yourself (``sim.run_to``, ``sim.summary()``, ``sim.traces()``).
* ``run_experiment(config) -> RunResult`` — build, run to completion,
  return aggregated stats plus collected traces; optionally export the
  traces as JSONL.
* ``run_many(configs, runner=run_steady_state, **kwargs)`` — map a
  runner over a sweep of independent configs on worker processes; results
  come back in input order, bit-identical to a serial loop
  (``REPRO_PARALLEL=0`` runs it serially; a failing config raises).
* the figure drivers (``fig2`` … ``fig7``, ``run_steady_state``,
  ``run_timeline``) — the paper's evaluation, now submitting their sweeps
  through ``run_many``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .experiments._build import Simulation, build_simulation
from .experiments.config import (EnvGates, ExperimentConfig, env_gates,
                                 env_scale, parse_parallel_env)
from .experiments.extensions import extA_scientific, scientific_config
from .experiments.figures import (FIGURES, FigureResult, fig2, fig3, fig4,
                                  fig5, fig6, fig7, flash_config,
                                  run_shift_experiment, scaling_config,
                                  shift_config)
from .experiments.overload import (fig_hotspot, fig_overload,
                                   hotspot_config, overload_config)
from .experiments.runner import (SteadyStateResult, TimelineResult,
                                 run_steady_state, run_timeline)
from .experiments.summary import ClusterSummary
from .experiments.workload import ClosedLoopSpec, OpenLoopSpec, WorkloadSpec
from .mds import SimParams
from .metrics import LatencyHistogram, LatencySummary
from .obs import (JsonlSink, RingBufferSink, Span, Trace, Tracer,
                  export_jsonl, read_jsonl)
from .parallel import run_many
from .model.backend import compiled_model_viable, model_info, resolve_model
from .proxy import ProxySpec, ProxyTier
from .sim.backend import (BACKEND_ENV, backend_of, compiled_viable,
                          kernel_info, make_environment, parse_backend_env,
                          resolve_kernel)


@dataclass
class RunResult:
    """What :func:`run_experiment` hands back."""

    config: ExperimentConfig
    summary: ClusterSummary
    #: sampled span traces (bounded by ``config.trace_buffer``)
    traces: List[Trace] = field(default_factory=list)
    #: where the JSONL export landed, if one was requested
    jsonl_path: Optional[str] = None


def run_experiment(config: ExperimentConfig, *,
                   run_until: Optional[float] = None,
                   jsonl_path: Optional[str] = None) -> RunResult:
    """Build a simulation, run it, and return aggregated observability.

    Tracing is wired per ``config.trace_sample_rate`` (0.0 by default:
    histograms only, bit-identical event ordering to an untraced run).
    ``jsonl_path`` additionally exports every collected trace as JSONL
    for offline analysis.
    """
    sim = build_simulation(config)
    sim.run_to(config.run_until_s if run_until is None else run_until)
    traces = sim.traces()
    if jsonl_path is not None:
        export_jsonl(traces, jsonl_path)
    return RunResult(config=config, summary=sim.summary(), traces=traces,
                     jsonl_path=jsonl_path)


__all__ = [
    # configuration & construction
    "ClosedLoopSpec",
    "EnvGates",
    "ExperimentConfig",
    "OpenLoopSpec",
    "ProxySpec",
    "ProxyTier",
    "SimParams",
    "Simulation",
    "WorkloadSpec",
    "build_simulation",
    "env_gates",
    "env_scale",
    "parse_parallel_env",
    # backend selection (REPRO_BACKEND: kernel and model)
    "BACKEND_ENV",
    "parse_backend_env",
    "backend_of",
    "compiled_viable",
    "kernel_info",
    "make_environment",
    "resolve_kernel",
    "compiled_model_viable",
    "model_info",
    "resolve_model",
    # one-call running
    "RunResult",
    "run_experiment",
    # parallel sweep execution
    "run_many",
    # typed summaries
    "ClusterSummary",
    "LatencyHistogram",
    "LatencySummary",
    # observability types
    "JsonlSink",
    "RingBufferSink",
    "Span",
    "Trace",
    "Tracer",
    "export_jsonl",
    "read_jsonl",
    # figure drivers & their configs
    "FIGURES",
    "FigureResult",
    "SteadyStateResult",
    "TimelineResult",
    "extA_scientific",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig_hotspot",
    "fig_overload",
    "flash_config",
    "hotspot_config",
    "overload_config",
    "run_shift_experiment",
    "run_steady_state",
    "run_timeline",
    "scaling_config",
    "scientific_config",
    "shift_config",
]
