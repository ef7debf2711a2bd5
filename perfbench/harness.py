"""Build, run, check and measure the simulator through ``repro.api``.

* ``build_simulation`` is timed as set-up, ``sim.run_to`` as the run, and
  ``sim.summary()`` supplies the simulated results.
* :func:`measure` (``--trace 0``) runs every sub-seed of a run once for
  the modelled metrics, then re-runs the sub-seeds in turn until the
  time budget is spent.  Every re-run must reproduce its first summary
  exactly.
* :func:`measure_traced` (``--trace 1``) runs the first sub-seed untraced,
  then again in one ``run_to`` call under ``cProfile`` with every request
  span-traced, and requires both summaries to be identical.

Host timing.  A 2-core x86-64 VM host measured under Python 3.11
alternates between a fast phase and one about 1.6x slower, each lasting
from under a second to many seconds, so a whole run can fall in either.
Each simulation is therefore driven to its end in :data:`STEPS` equal
steps of simulated time, and a fixed pure-Python probe loop is timed
before the build and after every call.  Each call's wall time is scaled
by :data:`PROBE_REF_S` over the mean of the probes around it, which
converts it to wall seconds of a host on which the probe takes
:data:`PROBE_REF_S`.  Driving the run in steps leaves every simulated
statistic unchanged (the traced run, driven in one call, checks that).
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api import ExperimentConfig, LatencyHistogram, build_simulation

from layers import layer_metrics
from workloads import Workload, sub_seeds

FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fingerprints.json")

#: seed whose fingerprints the benchmark ships with; ``record.py`` may add
#: more
DEFAULT_SEED = 42

#: ring-buffer capacity of the traced run: far above any workload's
#: request count, and checked, so no span is lost
TRACE_BUFFER = 1 << 22

#: simulated-time steps one run is driven in (see module docstring)
STEPS = 40

#: probe time the host timings are scaled to: about the probe's time in
#: the fast phase of a 2-core x86-64 host under Python 3.11
PROBE_REF_S = 200e-6

#: cheap set-ups are sampled by extra build-only calls, up to this many
#: samples or this much extra time, so the median of a ~10 ms build is
#: as steady as that of a ~1 s one
SETUP_SAMPLES = 100
SETUP_EXTRA_S = 1.0

#: every end-to-end metric: name -> (unit, which direction is better)
END_TO_END = {
    "sim_ops_per_s": ("ops/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_mds_ops_per_s": ("ops/s", "higher"),
    "sim_p50_ms": ("ms", "lower"),
    "sim_p99_ms": ("ms", "lower"),
    "sim_ok_frac": ("fraction", "higher"),
}


def probe() -> float:
    """Seconds of a fixed pure-Python loop: the host's present speed.

    The best of three ~0.3 ms tries, so an interrupt during one try does
    not read as a slow host.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(2000):
            key = i & 255
            table[key] = table.get(key, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Execution:
    """One build and run of one simulation, with host-speed probes."""

    seed: int
    setup_s: float
    #: wall seconds of each of the :data:`STEPS` ``run_to`` calls
    step_s: List[float]
    #: probe seconds before the build, before the first step and after
    #: every step (``STEPS + 2`` values)
    probes: List[float]
    summary: object
    #: the latency histogram ``summary.latency`` digests
    latency: LatencyHistogram
    #: open-loop requests the clients saw shed (0 for closed loops)
    shed: int

    @property
    def ops(self) -> int:
        return self.summary.total_ops

    @property
    def run_s(self) -> float:
        return sum(self.step_s)

    @property
    def scaled_setup_s(self) -> float:
        return self.setup_s * 2 * PROBE_REF_S / (self.probes[0]
                                                 + self.probes[1])

    @property
    def scaled_run_s(self) -> float:
        p = self.probes
        return sum(t * 2 * PROBE_REF_S / (p[k + 1] + p[k + 2])
                   for k, t in enumerate(self.step_s))


def fingerprint(ex: Execution) -> list:
    """The simulated statistics a speed-only change must leave identical:
    ops, errors, MDS drops, per-MDS throughput, hit rate, forward
    fraction, p50, p99, open-loop offered ops and client-seen sheds."""
    s = ex.summary
    return [s.total_ops, s.errors, s.dropped_ops, s.throughput_ops_per_s,
            s.hit_rate, s.forward_fraction, s.latency.p50_s,
            s.latency.p99_s, s.offered_ops, ex.shed]


def load_fingerprints(path: str = FINGERPRINTS) -> Dict[str, Dict[str, list]]:
    with open(path) as fh:
        return json.load(fh)


def check_fingerprint(expected: Optional[list], ex: Execution) -> bool:
    """False, and a logged failure, when ``ex`` does not match
    ``expected`` (``None``: no fingerprint recorded for this sub-seed)."""
    got = fingerprint(ex)
    if expected is None or got == expected:
        return True
    log(f"FAIL sub-seed {ex.seed}: fingerprint {got} != recorded {expected}")
    return False


def _shed(sim) -> int:
    return sum(getattr(client.stats, "dropped", 0) for client in sim.clients)


def latency_histogram(sim, summary) -> LatencyHistogram:
    """The histogram behind ``summary.latency``: ok completions inside the
    measure window for open-loop sources, every completion otherwise."""
    hist = LatencyHistogram()
    t0, t1 = summary.window
    for client in sim.clients:
        for t, latency in getattr(client.stats, "ok_latency_by_time", ()):
            if t0 <= t < t1:
                hist.record(latency)
    if not hist.count:
        hist = sim.tracer.latency_overall
    if hist.summary() != summary.latency:
        raise RuntimeError("latency histogram does not match the summary")
    return hist


def timed_build(config: ExperimentConfig):
    """``(simulation, seconds)`` of one ``build_simulation`` call."""
    gc.collect()  # garbage of the previous simulation is not this one's
    t0 = time.perf_counter()
    sim = build_simulation(config)
    return sim, time.perf_counter() - t0


def execute(config: ExperimentConfig) -> Execution:
    """Build and run one simulation in :data:`STEPS` timed steps."""
    probes = [probe()]
    sim, setup_s = timed_build(config)
    probes.append(probe())
    end = config.run_until_s
    step_s = []
    for k in range(1, STEPS + 1):
        t0 = time.perf_counter()
        sim.run_to(end if k == STEPS else end * k / STEPS)
        step_s.append(time.perf_counter() - t0)
        probes.append(probe())
    summary = sim.summary()
    return Execution(config.seed, setup_s, step_s, probes, summary,
                     latency_histogram(sim, summary), _shed(sim))


def provenance(summary) -> Dict[str, object]:
    kernel = summary.kernel
    return {"kernel_backend": kernel["kernel_backend"],
            "model_backend": kernel["model_backend"],
            "fastpath": bool(kernel["fastlane"])}


def pooled_latency(first: List[Execution]) -> LatencyHistogram:
    pooled = first[0].latency.copy()
    for ex in first[1:]:
        pooled.merge(ex.latency)
    return pooled


def modelled_metrics(first: List[Execution]) -> Dict[str, float]:
    """Simulated outcomes pooled over one run's sub-seeds."""
    summaries = [ex.summary for ex in first]
    attempted = sum(s.offered_ops or s.total_ops for s in summaries)
    failed = sum(s.errors for s in summaries) + sum(ex.shed for ex in first)
    latency = pooled_latency(first)
    return {
        "sim_mds_ops_per_s": statistics.fmean(
            s.throughput_ops_per_s for s in summaries),
        "sim_p50_ms": latency.quantile(0.50) * 1e3,
        "sim_p99_ms": latency.quantile(0.99) * 1e3,
        "sim_ok_frac": 1.0 - failed / attempted,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: Dict[str, object]


def measure(workload: Workload, seed: int, seconds: float,
            size: float = 1.0,
            expected: Optional[List[list]] = None) -> Outcome:
    """Untraced run: end-to-end metrics (see module docstring)."""
    deadline = time.perf_counter() + seconds
    seeds = sub_seeds(seed, workload.sims)
    first: List[Execution] = []
    failed = 0
    for i, sub in enumerate(seeds):
        ex = execute(workload.config(sub, size))
        failed += not check_fingerprint(expected[i] if expected else None,
                                        ex)
        first.append(ex)
    executions = list(first)
    while time.perf_counter() + statistics.fmean(
            ex.setup_s + ex.run_s for ex in executions) < deadline:
        i = len(executions) % len(seeds)
        ex = execute(workload.config(seeds[i], size))
        if ex.summary != first[i].summary:
            log(f"FAIL {workload.name}: re-run of sub-seed {ex.seed} "
                "differs from its first run")
            failed += 1
        executions.append(ex)
    setups = [ex.scaled_setup_s for ex in executions]
    config = workload.config(seeds[0], size)
    spent = 0.0
    while len(setups) < SETUP_SAMPLES and spent < SETUP_EXTRA_S:
        before = probe()
        setup_s = timed_build(config)[1]
        spent += setup_s
        setups.append(setup_s * 2 * PROBE_REF_S / (before + probe()))
    metrics = {
        "sim_ops_per_s": sum(ex.ops for ex in executions) / sum(
            ex.scaled_run_s for ex in executions),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        **modelled_metrics(first),
    }
    report = {
        "workload": workload.name, "seed": seed, "sub_seeds": seeds,
        "executions": len(executions), "setups": len(setups),
        "unscaled_ops_per_s": [round(ex.ops / ex.run_s)
                               for ex in executions],
        "latency_samples": pooled_latency(first).count,
        "min_latency_samples": min(ex.summary.latency.count
                                   for ex in first),
        **provenance(first[0].summary),
    }
    return Outcome(len(executions), failed, metrics, report)


def traced_run(config: ExperimentConfig):
    """Build ``config`` span-traced, profile its run, return
    ``(sim, wall seconds of run_to, pstats.Stats)``."""
    gc.collect()
    sim = build_simulation(config.replace(trace_sample_rate=1.0,
                                          trace_buffer=TRACE_BUFFER))
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    sim.run_to(config.run_until_s)
    profiler.disable()
    wall = time.perf_counter() - t0
    return sim, wall, pstats.Stats(profiler)


def measure_traced(workload: Workload, seed: int, size: float = 1.0,
                   expected: Optional[List[list]] = None) -> Outcome:
    """Traced run: per-layer metrics (see module docstring)."""
    config = workload.config(sub_seeds(seed, 1)[0], size)
    plain = execute(config)
    failed = int(not check_fingerprint(expected[0] if expected else None,
                                       plain))
    sim, wall, profile = traced_run(config)
    summary = sim.summary()
    if summary != plain.summary or repr(summary) != repr(plain.summary):
        log(f"FAIL {workload.name}: traced summary differs from untraced")
        failed += 1
    if summary.kernel["events_scheduled"] != \
            plain.summary.kernel["events_scheduled"]:
        log(f"FAIL {workload.name}: tracing changed the event count")
        failed += 1
    tracer = sim.tracer
    if len(tracer.sink) != tracer.finished or tracer.finished == 0:
        log(f"FAIL {workload.name}: trace buffer kept {len(tracer.sink)} "
            f"of {tracer.finished} requests")
        failed += 1
    metrics = layer_metrics(sim, summary, profile)
    metrics["trace.overhead_frac"] = wall / plain.run_s - 1.0
    metrics["clients.failed_frac"] = 1.0 - modelled_metrics(
        [plain])["sim_ok_frac"]
    report = {"workload": workload.name, "seed": seed,
              "sub_seed": config.seed, "traced_requests": tracer.finished,
              **provenance(summary)}
    return Outcome(2, failed, metrics, report)
