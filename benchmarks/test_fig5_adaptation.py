"""Figures 5 & 6: dynamic vs static subtree partitioning under a workload
shift (§5.3.2, §5.3.3).

One experiment feeds both figures: half the clients migrate to the
subtrees one MDS serves and start creating files there.  Asserts:

* Fig. 5 — after the shift, the dynamic partition's average per-MDS
  throughput recovers above the static partition's (re-delegation spreads
  the hot region), and the static partition shows a persistent imbalance;
* Fig. 6 — forwarding rises for the dynamic partition after its balancer
  migrates metadata (clients must rediscover locations), ending above the
  static partition's residual.
"""

from repro.api import fig5, fig6, run_shift_experiment

from .conftest import run_once


def test_fig5_and_fig6_workload_shift(benchmark, scale):
    results = run_once(benchmark, run_shift_experiment, scale=scale)
    f5 = fig5(scale, shift_results=results)
    f6 = fig6(scale, shift_results=results)
    print()
    print(f5.format())
    print()
    print(f6.format())

    dyn = results["DynamicSubtree"]
    sta = results["StaticSubtree"]
    shift_t = dyn.config.workload.args["shift_time_s"]

    # recovery window: from one balance round after the shift to a few
    # rounds later (the long tail degrades as the created namespace grows)
    lo = shift_t + 1.5
    hi = shift_t + 6.5
    dyn_window = [avg for (t, _mn, avg, _mx) in dyn.throughput_series
                  if lo <= t <= hi]
    sta_window = [avg for (t, _mn, avg, _mx) in sta.throughput_series
                  if lo <= t <= hi]
    assert dyn_window and sta_window
    dyn_avg = sum(dyn_window) / len(dyn_window)
    sta_avg = sum(sta_window) / len(sta_window)
    assert dyn_avg > 1.15 * sta_avg, (dyn_avg, sta_avg)

    # static stays unbalanced: its *least* loaded node never recovers to
    # its pre-shift level, while the dynamic partition lifts its weakest
    # node above the static average at some point in the window
    sta_min = [mn for (t, mn, _avg, _mx) in sta.throughput_series
               if lo <= t <= hi]
    dyn_min = [mn for (t, mn, _avg, _mx) in dyn.throughput_series
               if lo <= t <= hi]
    pre_avg = [avg for (t, _mn, avg, _mx) in sta.throughput_series
               if t < shift_t - 1.0]
    assert max(sta_min) < 0.8 * (sum(pre_avg) / len(pre_avg))
    assert max(dyn_min) > sta_avg

    # Fig. 6: dynamic partitioning ends with a higher forwarding residual
    dyn_fwd = [f for (t, f) in dyn.forward_series if t >= shift_t + 1.0]
    sta_fwd = [f for (t, f) in sta.forward_series if t >= shift_t + 1.0]
    assert sum(dyn_fwd) / len(dyn_fwd) > sum(sta_fwd) / len(sta_fwd)
