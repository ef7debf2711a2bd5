"""Bounded MDS inboxes: admission control sheds load explicitly."""

import pytest

from repro import _fastpath
from repro.experiments import (ExperimentConfig, OpenLoopSpec,
                               build_simulation, overload_config)
from repro.mds import SimParams
from repro.mds.messages import OVERLOAD_ERROR


def overloaded_cfg(inbox, rate=9000.0):
    spec = OpenLoopSpec(kind="general", rate_ops_per_s=rate, sources=8)
    return ExperimentConfig(
        n_mds=2, scale=0.25, workload=spec, warmup_s=0.2, duration_s=0.4,
        cache_capacity_per_mds=2000,
        params=SimParams(inbox_capacity=inbox))


def run(cfg):
    sim = build_simulation(cfg)
    sim.run_to(cfg.run_until_s)
    return sim


def test_bounded_inbox_sheds_excess_load():
    summary = run(overloaded_cfg(inbox=8)).summary()
    assert summary.dropped_ops > 0
    # node-side drop counters and client-side drop counters agree
    assert summary.offered_ops > summary.dropped_ops


def test_client_and_node_drop_counters_agree():
    sim = run(overloaded_cfg(inbox=8))
    node_drops = sum(s.drops for s in sim.cluster.node_stats())
    client_drops = sum(c.stats.dropped for c in sim.clients)
    # every shed request produced exactly one overload reply; a handful
    # may still be in flight to the client when the run ends
    assert node_drops >= client_drops > 0
    assert node_drops - client_drops < 50


def test_unbounded_inbox_never_drops():
    summary = run(overloaded_cfg(inbox=None)).summary()
    assert summary.dropped_ops == 0


def test_tighter_inbox_drops_more():
    # under sustained overload the shed rate is roughly offered minus
    # service rate whatever the queue depth, so compare a tight inbox
    # against one deep enough to swallow the whole run's backlog
    tight = run(overloaded_cfg(inbox=4)).summary()
    loose = run(overloaded_cfg(inbox=4096)).summary()
    assert tight.dropped_ops > loose.dropped_ops
    assert loose.dropped_ops == 0


def test_drop_reply_carries_overload_error():
    sim = run(overloaded_cfg(inbox=4))
    dropped = sum(c.stats.dropped for c in sim.clients)
    errors = sum(c.stats.errors for c in sim.clients)
    assert dropped > 0
    # drops are not counted as client errors: they are deliberate sheds
    # recognised by OVERLOAD_ERROR, kept out of the error/latency books
    assert OVERLOAD_ERROR  # marker string exists and is non-empty
    assert errors < dropped


@pytest.mark.parametrize("fastpath", ["0", "1"])
def test_admission_is_fastpath_invariant(fastpath, monkeypatch):
    # the drop decision reads the dispatch-time inflight counter, never
    # the inbox deque, so both kernel modes shed the same requests; the
    # second config adds the proxy tier in front of the bounded inboxes
    for cfg in (overloaded_cfg(inbox=8),
                overload_config(1.25, proxy=True, scale=0.25)):
        monkeypatch.setattr(_fastpath, "ENABLED", fastpath == "1")
        summary = run(cfg).summary()
        monkeypatch.setattr(_fastpath, "ENABLED", fastpath == "0")
        other = run(cfg).summary()
        assert repr(summary) == repr(other)
        assert summary.dropped_ops == other.dropped_ops
        assert summary.proxy == other.proxy
