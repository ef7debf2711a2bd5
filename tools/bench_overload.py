#!/usr/bin/env python3
"""Benchmark the overload scenarios and write ``BENCH_overload.json``.

Runs the open-loop goodput-vs-offered-load sweep (dynamic subtree, with
and without admission control, plus the proxy-fronted variant) and the
flash-crowd hotspot head-to-head (§4.4 traffic control vs the proxy
tier), recording:

* goodput at the peak offered load with admission control on — the
  headline "the cluster keeps working past saturation" number;
* the shape checks the figures claim (no-AC goodput collapses past the
  knee, AC goodput stays pinned; the proxy beats traffic control on p99
  under the hotspot).

The baseline is **read from the previously committed report** at
``--out`` (its ``peak_ac_goodput_ops_per_s``), so every run is compared
against the last recorded state of the tree.  Goodput is a simulated
quantity — deterministic per seed, independent of host speed — so a >15%
regression against the prior baseline means the *model* changed; it
prints a warning but never fails the run (model changes can be
deliberate).  Fast-lane equivalence on the admission+proxy path is
checked in tier-1 (``tests/mds/test_bounded_inbox.py``).

Usage:
    PYTHONPATH=src python tools/bench_overload.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_common  # noqa: E402  (tools-dir import)
from bench_common import REGRESSION_TOLERANCE, load_prior_report  # noqa: E402,F401

from repro.experiments.overload import fig_hotspot, fig_overload  # noqa: E402

#: used only when no prior report exists at ``--out``
FALLBACK_BASELINE_GOODPUT_OPS_S = 9500.0

#: offered-load fractions for --quick runs (full runs use the figure's)
QUICK_FRACTIONS = [0.5, 1.0, 1.6]

#: the hotspot head-to-head runs at the smallest supported scale: its
#: window is hotspot-dominated there (the countermeasure difference is
#: the signal), and the sweep's collapse/hold shapes need the longer
#: window of the default ``--scale``
HOTSPOT_SCALE = 0.25


def baseline_from_prior(prior) -> float:
    """The prior report's recorded peak-AC goodput (or the fallback)."""
    return bench_common.baseline_from_prior(
        prior, ("peak_ac_goodput_ops_per_s",),
        FALLBACK_BASELINE_GOODPUT_OPS_S)


def trajectory_from_prior(prior) -> list:
    """The prior report's trajectory list (empty for a fresh report)."""
    return bench_common.trajectory_from_prior(prior)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer offered-load points for CI")
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--out", default="BENCH_overload.json")
    args = parser.parse_args(argv)

    prior = load_prior_report(args.out)
    baseline = baseline_from_prior(prior)
    trajectory = trajectory_from_prior(prior)

    fractions = QUICK_FRACTIONS if args.quick else None
    t0 = time.perf_counter()
    overload = fig_overload(scale=args.scale, fractions=fractions)
    hotspot = fig_hotspot(scale=HOTSPOT_SCALE)
    wall = time.perf_counter() - t0

    # index the sweep: variant -> [(offered, goodput), ...] in load order
    by_variant = {name: list(points)
                  for name, points in overload.series.items()}
    no_ac = by_variant["dynamic no-AC"]
    ac = by_variant["dynamic AC"]
    peak_ac_goodput = ac[-1][1]
    # shape checks the overload figure claims
    no_ac_collapses = no_ac[-1][1] < 0.5 * max(g for _o, g in no_ac)
    ac_holds = ac[-1][1] >= 0.8 * max(g for _o, g in ac)

    hot_rows = {row[0]: row for row in hotspot.rows}
    proxy_p99 = hot_rows["proxy"][2]
    tc_p99 = hot_rows["traffic-control"][2]
    proxy_beats_tc = proxy_p99 < tc_p99

    print(f"overload sweep + hotspot in {wall:.1f}s wall")
    print(f"peak AC goodput {peak_ac_goodput:.0f} ops/s "
          f"(no-AC collapses: {no_ac_collapses}, AC holds: {ac_holds})")
    print(f"hotspot p99: proxy {proxy_p99:.2f} ms vs "
          f"traffic control {tc_p99:.2f} ms "
          f"(proxy wins: {proxy_beats_tc})")

    vs_baseline = peak_ac_goodput / baseline
    regressed = bench_common.warn_if_regressed(
        peak_ac_goodput, baseline, what="peak AC goodput",
        hint="ops/s; informational: the overload model changed; update "
             "expectations if deliberate")

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "peak_ac_goodput_ops_per_s": round(peak_ac_goodput, 1),
        "proxy_p99_ms": proxy_p99,
        "tc_p99_ms": tc_p99,
        "quick": args.quick,
    }
    trajectory.append(entry)

    report = {
        "benchmark": "open-loop overload & admission control",
        "quick": args.quick,
        "scale": args.scale,
        "hotspot_scale": HOTSPOT_SCALE,
        **bench_common.host_fields(),
        "timestamp": entry["timestamp"],
        "wall_s": round(wall, 1),
        "baseline_peak_ac_goodput_ops_per_s": round(baseline, 1),
        "peak_ac_goodput_ops_per_s": round(peak_ac_goodput, 1),
        "goodput_vs_baseline": round(vs_baseline, 3),
        "regressed_vs_baseline": regressed,
        "shape": {
            "no_ac_collapses_past_knee": no_ac_collapses,
            "ac_goodput_holds": ac_holds,
            "proxy_beats_tc_on_p99": proxy_beats_tc,
        },
        "goodput_by_variant": {
            name: [[round(o, 1), round(g, 1)] for o, g in points]
            for name, points in by_variant.items()
        },
        "hotspot": {
            "headers": hotspot.headers,
            "rows": [list(r) for r in hotspot.rows],
        },
        "trajectory": trajectory,
    }
    bench_common.write_report(args.out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
