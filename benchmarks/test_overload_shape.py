"""Overload and hotspot extension figures: the shapes they claim.

A plain test (no ``benchmark`` fixture) at fixed small scales:

* without admission control, goodput at 1.6x the offered-load knee
  collapses below half its peak;
* with admission control, goodput at that load stays within 80% of its
  peak;
* under the flash-crowd hotspot, the proxy tier beats §4.4 traffic
  control on p99 latency.

All three are simulated quantities, so they do not depend on the host.
The hotspot runs at scale 0.25, where its window is hotspot-dominated;
the sweep's collapse needs the longer window of scale 0.3.
"""

from repro.api import fig_hotspot, fig_overload


def _top_and_peak(points):
    goodputs = [goodput for _offered, goodput in points]
    return goodputs[-1], max(goodputs)


def test_overload_and_hotspot_shapes():
    overload = fig_overload(scale=0.3, fractions=[0.5, 1.0, 1.6])
    top, peak = _top_and_peak(overload.series["dynamic no-AC"])
    assert top < 0.5 * peak, (top, peak)
    top, peak = _top_and_peak(overload.series["dynamic AC"])
    assert top >= 0.8 * peak, (top, peak)

    hotspot = fig_hotspot(scale=0.25)
    p99 = {row[0]: row[2] for row in hotspot.rows}
    assert p99["proxy"] < p99["traffic-control"], p99
