"""Object lifetimes of whole simulations: what a run allocates and frees.

* A finished simulation is garbage as soon as its last reference goes,
  and one collection frees it (no simulation code runs inside the
  collector to revive it).
* An open-loop run with the proxy tier builds no process per request:
  every :class:`~repro.sim.Process` is started at build time.
* Under the fast lane a closed-loop client recycles its request object,
  so a run allocates about one :class:`~repro.mds.messages.MdsRequest`
  per client, however many ops it completes.
"""

import gc

from repro import _fastpath
from repro.experiments import (ClosedLoopSpec, ExperimentConfig, OpenLoopSpec,
                               build_simulation)
from repro.mds import SimParams
from repro.mds.messages import MdsRequest
from repro.proxy import ProxySpec
from repro.sim import Process


def open_loop_cfg(rate, proxy):
    spec = OpenLoopSpec(kind="general", rate_ops_per_s=rate, sources=4,
                        hotspot_prob=0.5, hotspot_start_s=0.05,
                        hotspot_duration_s=0.2)
    return ExperimentConfig(
        n_mds=2, scale=0.1, workload=spec, warmup_s=0.1, duration_s=0.2,
        cache_capacity_per_mds=500, params=SimParams(inbox_capacity=8),
        proxy=ProxySpec(hot_threshold=5.0) if proxy else None)


def run(cfg):
    sim = build_simulation(cfg)
    sim.run_to(cfg.run_until_s)
    return sim


def count_constructions(monkeypatch, cls):
    """Count ``cls(...)`` calls from now on; returns a one-item list."""
    count = [0]
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return count


def test_finished_contended_simulation_is_freed_by_one_collection():
    # Offered load well past what two nodes serve: MDS workers are parked
    # in contended CPU holds when the run stops.
    while gc.collect():
        pass
    sim = run(open_loop_cfg(8000.0, proxy=False))
    assert sim.summary().total_ops > 0
    del sim
    gc.collect()
    assert gc.collect() == 0


def test_open_loop_proxy_run_builds_no_process_per_request(monkeypatch):
    processes = count_constructions(monkeypatch, Process)
    offered = []
    built = []
    for rate in (2000.0, 8000.0):
        processes[0] = 0
        sim = run(open_loop_cfg(rate, proxy=True))
        offered.append(sum(c.stats.offered for c in sim.clients))
        built.append(processes[0])
    assert offered[1] > 3 * offered[0]
    assert built[0] == built[1]


def test_closed_loop_clients_recycle_their_requests(monkeypatch):
    monkeypatch.setattr(_fastpath, "ENABLED", True)  # recycling is fast-lane
    spec = ClosedLoopSpec(kind="shifting", think_time_s=0.01,
                          args={"shift_time_s": 0.5,
                                "migrate_fraction": 0.5})
    cfg = ExperimentConfig(n_mds=2, scale=0.25, workload=spec,
                           users_per_mds=8, files_per_user=30,
                           clients_per_mds=40, warmup_s=0.0,
                           duration_s=4.0)
    requests = count_constructions(monkeypatch, MdsRequest)
    sim = run(cfg)
    ops = sim.summary().total_ops
    assert ops > 1000
    # one spare per client absorbs the steady state: allocations stay
    # around the client count, whatever the number of ops
    assert requests[0] <= 2 * cfg.n_clients
