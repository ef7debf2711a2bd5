"""Seed-splitting guarantees that build order and worker processes lean on.

Every named stream is derived statelessly from ``(master_seed, name)``,
so a stream's draws never depend on which other streams were created
before it, or in which order.  That is what lets the namespace-snapshot
memo generate a tree from a fresh stream factory, and what makes a
config run in a forked ``repro.parallel`` worker draw exactly the bits
the serial run would have.
"""

import multiprocessing

import pytest

from repro.sim.rng import RngStreams, derive_seed


class TestOrderInvariance:
    def test_streams_do_not_depend_on_construction_order(self):
        # one factory builds clients {0, 2}, another {1, 3}; a third
        # builds all four in order — every stream must agree
        in_order = RngStreams(42)
        evens = RngStreams(42)
        odds = RngStreams(42)
        draws = {i: [in_order.py_stream(f"client.{i}").random()
                     for _ in range(32)] for i in range(4)}
        for i in (0, 2):
            assert [evens.py_stream(f"client.{i}").random()
                    for _ in range(32)] == draws[i]
        for i in (1, 3):
            assert [odds.py_stream(f"client.{i}").random()
                    for _ in range(32)] == draws[i]

    def test_skipping_streams_perturbs_nothing(self):
        # materializing a subset of named streams never shifts the others
        full = RngStreams(7)
        sparse = RngStreams(7)
        _ = [full.py_stream(f"client.{i}") for i in range(16)]
        assert (sparse.py_stream("client.15").random()
                == full.py_stream("client.15").random())


class TestCollisions:
    def test_no_seed_collisions_across_names(self):
        names = [f"client.{i}" for i in range(512)]
        names += [f"source.{i}" for i in range(512)]
        names += ["snapshot.tree", "snapshot.names", "balance"]
        seeds = {derive_seed(42, name) for name in names}
        assert len(seeds) == len(names)

    def test_distinct_masters_distinct_streams(self):
        a = RngStreams(1).py_stream("client.0").random()
        b = RngStreams(2).py_stream("client.0").random()
        assert a != b


def _worker_draws(args):
    seed, name, n = args
    stream = RngStreams(seed).py_stream(name)
    return [stream.random() for _ in range(n)]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork to mirror the sweep workers")
class TestProcessBoundary:
    def test_deterministic_across_fork(self):
        local = _worker_draws((42, "client.3", 64))
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            remote = pool.map(_worker_draws,
                              [(42, "client.3", 64)] * 2)
        assert remote[0] == remote[1] == local
