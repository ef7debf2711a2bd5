#!/usr/bin/env python3
"""Compiled-kernel benchmark + full-scale figure run; ``BENCH_fullscale.json``.

Three stages, each recorded in the report:

1. **Kernel churn microbenchmark** — a calendar-bound workload (timeout
   chains through callbacks, no model code) timed on both backends.
   This isolates what the compiled calendar buys: the end-to-end figure
   runs are dominated by the python MDS model, so the portable
   compiled-vs-reference signal is measured where the kernel *is* the
   workload.  Best wall of ``--repeat`` runs per backend.
2. **Equivalence spot check** — a fixed-seed experiment run under each
   ``REPRO_BACKEND`` value; the summaries must be bit-identical (``repr``
   equality), and divergence fails the run.  The exhaustive proofs live
   in the backend-parametrized test suites; this is the bench-time smoke
   of the same contract.
3. **Figure regeneration** — Figures 2-7 at ``--scale`` (default
   **1.0**) under ``REPRO_BACKEND=compiled`` (silent fallback to
   reference when an extension is unbuilt, recorded as
   ``kernel_backend``/``model_backend``).  Text
   tables land in ``results/figures_scale<scale>.txt`` and CSVs in
   ``results/csv_fullscale/``; per-figure wall times go in the report.

Report discipline follows ``bench_common``: the baseline is the prior
committed report's compiled churn rate, each run appends to the
``trajectory``, and a >15% regression warns without failing (absolute
rates are host-dependent; the hard failure is the equivalence check).

Usage:
    PYTHONPATH=src python tools/bench_fullscale.py            # scale 1.0
    PYTHONPATH=src python tools/bench_fullscale.py --quick    # CI smoke
    PYTHONPATH=src python tools/bench_fullscale.py --no-figures
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_common  # noqa: E402  (tools-dir import)
from bench_common import load_prior_report  # noqa: E402

from repro.api import build_simulation, scaling_config  # noqa: E402
from repro.experiments.figures import (FIGURES, fig5, fig6,  # noqa: E402
                                       run_shift_experiment)
from repro.sim import CompiledEnvironment, Environment  # noqa: E402
from repro.model.backend import resolve_model  # noqa: E402
from repro.sim.backend import (BACKEND_ENV, compiled_viable,  # noqa: E402
                               resolve_kernel)

#: compiled churn rate (events/wall-s) recorded when this tool landed —
#: used only when no prior report exists at ``--out``.
FALLBACK_BASELINE_EVENTS_PER_S = 2_500_000.0

#: calendar-bound events per churn run (quick mode divides by 5)
CHURN_EVENTS = 300_000


def churn(env_cls, n_events: int) -> float:
    """Wall seconds to drain ``n_events`` through pure timeout chains."""
    env = env_cls(fastlane=True)
    remaining = [n_events]

    def resume(_ev):
        if remaining[0] > 0:
            remaining[0] -= 1
            t = env.timeout(0.001)
            t.callbacks.append(resume)

    for i in range(64):
        t = env.timeout(0.001 * i)
        t.callbacks.append(resume)
    t0 = time.perf_counter()
    env.run()
    return time.perf_counter() - t0


def bench_kernels(n_events: int, repeat: int) -> dict:
    """Best-of-``repeat`` churn walls per backend; rates and speedup."""
    out = {"churn_events": n_events,
           "reference_events_per_s": None,
           "compiled_events_per_s": None,
           "speedup_compiled_vs_reference": None}
    backends = [("reference", Environment)]
    if compiled_viable():
        backends.append(("compiled", CompiledEnvironment))
    walls = {}
    for name, env_cls in backends:
        best = min(churn(env_cls, n_events) for _ in range(max(1, repeat)))
        walls[name] = best
        rate = n_events / best
        out[f"{name}_events_per_s"] = round(rate, 1)
        print(f"kernel churn [{name}]: {n_events} events in {best:.3f}s "
              f"-> {rate:,.0f} events/wall-s")
    if "compiled" in walls:
        speedup = walls["reference"] / walls["compiled"]
        out["speedup_compiled_vs_reference"] = round(speedup, 3)
        print(f"compiled kernel speedup {speedup:.2f}x on the "
              "calendar-bound workload")
    else:
        print("compiled kernel unavailable; churn measured on reference "
              "only")
    return out


def equivalence_check(scale: float) -> bool:
    """Fixed-seed summaries must match byte-for-byte across backends."""
    cfg = scaling_config("DynamicSubtree", 4, scale, seed=42)
    reprs = {}
    for backend in ("reference", "compiled"):
        os.environ[BACKEND_ENV] = backend
        sim = build_simulation(cfg)
        sim.run_to(cfg.run_until_s)
        reprs[backend] = repr(sim.summary())
    identical = reprs["reference"] == reprs["compiled"]
    print(f"equivalence spot check (scale {scale}): "
          f"identical summaries: {identical}")
    return identical


def run_figures(scale: float, seeds, out_dir: str, quiet: bool) -> dict:
    """Figures 2-7 at ``scale`` under the current gate; per-figure walls."""
    progress = (lambda msg: None) if quiet else (
        lambda msg: print(f"  .. {msg}", file=sys.stderr, flush=True))
    os.makedirs(out_dir, exist_ok=True)
    csv_dir = os.path.join(out_dir, "csv_fullscale")
    os.makedirs(csv_dir, exist_ok=True)
    text_path = os.path.join(out_dir, f"figures_scale{scale:g}.txt")
    figures = {}
    shift = None
    with open(text_path, "w", encoding="utf-8") as fp:
        for name in sorted(FIGURES):
            start = time.perf_counter()
            if name in ("fig5", "fig6"):
                if shift is None:
                    shift = run_shift_experiment(scale, progress)
                result = (fig5 if name == "fig5" else fig6)(
                    scale, shift_results=shift)
            else:
                kwargs = {"scale": scale, "progress": progress}
                if seeds is not None and name in ("fig2", "fig3", "fig4"):
                    kwargs["seeds"] = seeds
                result = FIGURES[name](**kwargs)
            wall = time.perf_counter() - start
            figures[name] = {"wall_s": round(wall, 1)}
            fp.write(result.format() + "\n\n")
            result.save_csv(csv_dir)
            print(f"{name}: {wall:.1f}s", flush=True)
    figures["_text"] = text_path
    figures["_csv_dir"] = csv_dir
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: tiny scale, short churn")
    parser.add_argument("--scale", type=float, default=None,
                        help="figure scale (default 1.0; 0.05 with "
                             "--quick)")
    parser.add_argument("--seeds", type=int, default=None,
                        help="seeds for fig2/fig3/fig4 (default: the "
                             "figure drivers' own)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="churn timing repeats per backend (min wins)")
    parser.add_argument("--no-figures", action="store_true",
                        help="record the kernel numbers and equivalence "
                             "check only")
    parser.add_argument("--results-dir", default="results",
                        help="where figure text/CSV outputs land")
    parser.add_argument("--out", default="BENCH_fullscale.json")
    args = parser.parse_args(argv)
    scale = args.scale if args.scale is not None else \
        (0.05 if args.quick else 1.0)
    churn_events = CHURN_EVENTS // 5 if args.quick else CHURN_EVENTS

    prior = load_prior_report(args.out)
    baseline = bench_common.baseline_from_prior(
        prior, ("kernel", "compiled_events_per_s"),
        FALLBACK_BASELINE_EVENTS_PER_S)
    trajectory = bench_common.trajectory_from_prior(prior)

    kernel = bench_kernels(churn_events, args.repeat)

    prior_env = os.environ.get(BACKEND_ENV)
    figures = {}
    try:
        identical = equivalence_check(0.05 if args.quick else 0.1)
        os.environ[BACKEND_ENV] = "compiled"  # silent fallback if unbuilt
        figures_backend = resolve_kernel()
        model_backend = resolve_model()
        if not args.no_figures:
            print(f"regenerating figures 2-7 at scale {scale} on the "
                  f"{figures_backend} kernel | {model_backend} model",
                  flush=True)
            figures = run_figures(scale, args.seeds, args.results_dir,
                                  quiet=args.quick)
    finally:
        if prior_env is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = prior_env

    compiled_rate = kernel["compiled_events_per_s"]
    regressed = False
    if compiled_rate is not None:
        regressed = bench_common.warn_if_regressed(
            compiled_rate, baseline, what="compiled kernel churn rate",
            hint="events/wall-s; informational: absolute rates depend on "
                 "host load")

    figure_walls = {k: v for k, v in figures.items()
                    if not k.startswith("_")}
    total_wall = round(sum(v["wall_s"] for v in figure_walls.values()), 1)
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale,
        "reference_events_per_s": kernel["reference_events_per_s"],
        "compiled_events_per_s": compiled_rate,
        "speedup_compiled_vs_reference":
            kernel["speedup_compiled_vs_reference"],
        "figures_total_wall_s": total_wall if figure_walls else None,
        "quick": args.quick,
    }
    trajectory.append(entry)

    host = bench_common.host_fields()
    # the ambient gate was restored above; the report's backend field
    # should name what actually produced the recorded run
    host["kernel_backend"] = figures_backend
    report = {
        "benchmark": "compiled kernel + full-scale figures",
        "quick": args.quick,
        "scale": scale,
        "seeds": args.seeds,
        "repeats": args.repeat,
        **host,
        "timestamp": entry["timestamp"],
        "baseline_events_per_s": round(baseline, 1),
        "kernel": kernel,
        "speedup_compiled_vs_reference":
            kernel["speedup_compiled_vs_reference"],
        "regressed_vs_baseline": regressed,
        "identical_summaries": identical,
        "figures_backend": figures_backend,
        "figures": figure_walls,
        "figures_total_wall_s": total_wall if figure_walls else None,
        "outputs": ({"text": figures.get("_text"),
                     "csv_dir": figures.get("_csv_dir")}
                    if figure_walls else None),
        "trajectory": trajectory,
    }
    bench_common.write_report(args.out, report)
    if not identical:
        print("ERROR: compiled-kernel summaries diverged from the "
              "reference backend")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
