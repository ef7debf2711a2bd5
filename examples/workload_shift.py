#!/usr/bin/env python3
"""Workload-shift demo: dynamic re-delegation vs a static partition.

The §5.3.2 scenario: a general-purpose population runs for a while, then
half the clients converge on the subtrees one MDS serves and start
creating files there.  The same run is performed with a static subtree
partition (nothing moves) and a dynamic one (the load balancer re-delegates
the hot subtrees), and the per-second cluster averages are printed side by
side.

Run:  python examples/workload_shift.py
"""

from repro.api import run_timeline, shift_config
from repro.metrics import format_table

SCALE = 0.4


def main() -> None:
    print("running static partition ...")
    static = run_timeline(shift_config("StaticSubtree", SCALE),
                          sample_interval_s=1.0)
    print("running dynamic partition ...")
    dynamic = run_timeline(shift_config("DynamicSubtree", SCALE),
                           sample_interval_s=1.0)

    shift_t = static.config.workload.args["shift_time_s"]
    rows = []
    for (t, smin, savg, smax), (_t, dmin, davg, dmax) in zip(
            static.throughput_series, dynamic.throughput_series):
        marker = " <= shift" if abs(t - shift_t) < 0.5 else ""
        rows.append([f"{t:.1f}{marker}", f"{savg:.0f}",
                     f"{smin:.0f}-{smax:.0f}", f"{davg:.0f}",
                     f"{dmin:.0f}-{dmax:.0f}"])
    print()
    print(format_table(
        ["time", "static avg", "static range", "dynamic avg",
         "dynamic range"],
        rows,
        title=f"Per-MDS throughput (ops/s); half the clients migrate at "
              f"t={shift_t:.0f}s"))

    post = [t for (t, *_rest) in static.throughput_series if t > shift_t + 1]
    if post:
        s_avg = sum(avg for (t, _mn, avg, _mx) in static.throughput_series
                    if t > shift_t + 1) / len(post)
        d_avg = sum(avg for (t, _mn, avg, _mx) in dynamic.throughput_series
                    if t > shift_t + 1) / len(post)
        print()
        print(f"post-shift average per-MDS throughput: "
              f"static {s_avg:.0f} ops/s, dynamic {d_avg:.0f} ops/s "
              f"({d_avg / s_avg:.2f}x)")


if __name__ == "__main__":
    main()
