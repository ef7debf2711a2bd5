"""Experiment harness (S13 in DESIGN.md): configs, builders, figure drivers."""

from ._build import Simulation, build_simulation
from .config import (EnvGates, ExperimentConfig, env_gates, env_scale,
                     parse_parallel_env)
from .extensions import extA_scientific, scientific_config
from .figures import (FIGURES, FigureResult, fig2, fig3, fig4, fig5, fig6,
                      fig7, flash_config, run_shift_experiment,
                      scaling_config, shift_config)
from .overload import (fig_hotspot, fig_overload, hotspot_config,
                       overload_config)
from .runner import (SteadyStateResult, TimelineResult, run_steady_state,
                     run_timeline)
from .summary import ClusterSummary, summarize_simulation
from .workload import ClosedLoopSpec, OpenLoopSpec, WorkloadSpec

__all__ = [
    "ClosedLoopSpec",
    "ClusterSummary",
    "EnvGates",
    "ExperimentConfig",
    "FIGURES",
    "FigureResult",
    "OpenLoopSpec",
    "Simulation",
    "SteadyStateResult",
    "TimelineResult",
    "WorkloadSpec",
    "build_simulation",
    "env_gates",
    "env_scale",
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
    "parse_parallel_env",
    "run_shift_experiment",
    "scientific_config",
    "run_steady_state",
    "run_timeline",
    "scaling_config",
    "shift_config",
    "summarize_simulation",
]
