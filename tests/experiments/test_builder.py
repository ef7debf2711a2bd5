"""Tests for simulation construction from configs."""

import pytest

from repro.clients import (FlashCrowdWorkload, GeneralWorkload,
                           ScientificWorkload, ShiftingWorkload)
from repro.experiments import (ClosedLoopSpec, ExperimentConfig,
                               build_simulation)
from repro.experiments._build import (_flash_target, _make_workload,
                                      _size_cache)
from repro.namespace import path as pathmod


def small(kind="general", args=None, **kw):
    return ExperimentConfig(n_mds=3, scale=0.2,
                            workload=ClosedLoopSpec(kind=kind,
                                                    args=args or {}),
                            warmup_s=0.2, duration_s=0.5, **kw)


def test_builds_all_components():
    sim = build_simulation(small())
    assert sim.cluster.n_mds == 3
    assert len(sim.clients) == small().n_clients
    assert sim.total_metadata == len(sim.ns)
    assert isinstance(sim.workload, GeneralWorkload)


def test_same_seed_same_namespace():
    a = build_simulation(small(seed=5))
    b = build_simulation(small(seed=5))
    assert len(a.ns) == len(b.ns)


def test_cache_fraction_sizing():
    cfg = small(cache_fraction=0.1, cache_capacity_per_mds=None)
    sim = build_simulation(cfg)
    expected = max(16, int(0.1 * len(sim.ns)))
    assert sim.cluster.params.cache_capacity == expected


def test_cache_absolute_sizing():
    cfg = small(cache_capacity_per_mds=123)
    sim = build_simulation(cfg)
    assert sim.cluster.params.cache_capacity == 123


def test_workload_kinds():
    assert isinstance(build_simulation(small("scaling")).workload,
                      GeneralWorkload)
    assert isinstance(build_simulation(small("shifting")).workload,
                      ShiftingWorkload)
    assert isinstance(build_simulation(small("scientific")).workload,
                      ScientificWorkload)
    assert isinstance(build_simulation(small("flash")).workload,
                      FlashCrowdWorkload)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        build_simulation(small("nope"))


def test_make_workload_rejects_unknown_kind_directly():
    sim = build_simulation(small())
    cfg = small("bogus")
    with pytest.raises(ValueError, match="unknown workload kind 'bogus'"):
        _make_workload(cfg, cfg.workload, sim.ns, sim.snapshot)


class TestSizeCache:
    def test_fraction_takes_precedence_over_absolute(self):
        cfg = small(cache_fraction=0.5, cache_capacity_per_mds=7)
        params = _size_cache(cfg, total_metadata=1000)
        assert params.cache_capacity == 500  # fraction wins

    def test_fraction_applies_floor_of_16(self):
        cfg = small(cache_fraction=0.001, cache_capacity_per_mds=None)
        params = _size_cache(cfg, total_metadata=100)
        assert params.cache_capacity == 16

    def test_absolute_capacity_used_when_no_fraction(self):
        cfg = small(cache_fraction=None, cache_capacity_per_mds=77)
        params = _size_cache(cfg, total_metadata=10_000)
        assert params.cache_capacity == 77
        assert params.journal_capacity == 77

    def test_neither_set_returns_params_untouched(self):
        cfg = small(cache_fraction=None, cache_capacity_per_mds=None)
        assert _size_cache(cfg, total_metadata=10_000) is cfg.params


class TestFlashTarget:
    def test_picks_lexicographically_last_file_child(self):
        sim = build_simulation(small("flash"))
        root = sim.snapshot.user_roots[-1]
        node = sim.ns.resolve(root)
        file_names = sorted(
            name for name, ino in node.children.items()
            if sim.ns.inode(ino).is_file)
        assert file_names, "fixture root should have file children"
        expected = pathmod.join(root, file_names[-1])
        assert _flash_target(sim.ns, sim.snapshot) == expected

    def test_choice_ignores_dict_insertion_order(self):
        # reversing children's insertion order must not change the target
        sim = build_simulation(small("flash"))
        root = sim.snapshot.user_roots[-1]
        node = sim.ns.resolve(root)
        before = _flash_target(sim.ns, sim.snapshot)
        items = list(node.children.items())
        node.children.clear()
        node.children.update(reversed(items))
        assert _flash_target(sim.ns, sim.snapshot) == before

    def test_creates_synthetic_file_when_root_has_none(self):
        sim = build_simulation(small())
        root = sim.snapshot.user_roots[-1]
        node = sim.ns.resolve(root)
        doomed = [name for name, ino in node.children.items()
                  if sim.ns.inode(ino).is_file]
        for name in doomed:
            sim.ns.unlink(pathmod.join(root, name))
        target = _flash_target(sim.ns, sim.snapshot)
        assert target == pathmod.join(root, "hotfile.dat")
        assert sim.ns.resolve(target).is_file


def test_shifting_victims_belong_to_victim_node():
    cfg = small("shifting", args={"victim_node": 1, "shift_time_s": 0.1})
    sim = build_simulation(cfg)
    wl = sim.workload
    for root in wl.victim_roots:
        ino = sim.ns.resolve(root).ino
        assert sim.cluster.strategy.authority_of_ino(ino) == 1


def test_flash_target_is_existing_file():
    sim = build_simulation(small("flash"))
    target = sim.workload.target
    assert sim.ns.resolve(target).is_file


def test_simulation_runs():
    sim = build_simulation(small())
    sim.run_to(cfg_t := small().run_until_s)
    assert sim.env.now == cfg_t
    assert sum(c.stats.ops_completed for c in sim.clients) > 0
