"""Resolution-memo correctness: error paths, invalidation, invariants.

The memo must be invisible: every resolution through it must match what a
cold walk returns, before and after any structural mutation.  These tests
drive ``resolve``/``try_resolve``/``ancestors`` with the memo attached and
check staleness is impossible after rename/unlink/orphan release.
"""

import copy

import pytest

from repro.namespace import (FileNotFound, Namespace, NotADirectory,
                             ResolutionMemo, build_tree)


@pytest.fixture(scope="module", autouse=True, params=["reference"])
def implementation(request):
    """One parameter, so every test id here ends in ``[reference]``: the
    suite once ran per memo implementation, and the suffix keeps recorded
    test ids stable."""
    return request.param


@pytest.fixture
def ns():
    namespace = Namespace()
    build_tree(namespace, {
        "home": {
            "alice": {"notes.txt": 100, "src": {"main.c": 50}},
            "bob": {"todo.txt": 10},
        },
        "usr": {"bin": {"ls": 900}},
    })
    namespace.enable_resolution_memo()
    return namespace


# ----------------------------------------------------------------------
# error paths (dangling / wrong-type components)
# ----------------------------------------------------------------------
def test_resolve_missing_leaf_raises_and_is_not_cached(ns):
    with pytest.raises(FileNotFound):
        ns.resolve(("home", "alice", "nope"))
    # negative lookups are never memoised
    assert ("home", "alice", "nope") not in ns.resolution_memo.paths
    ns.resolution_memo.verify_invariants()


def test_resolve_missing_middle_component(ns):
    with pytest.raises(FileNotFound):
        ns.resolve(("home", "carol", "x"))
    assert ns.try_resolve(("home", "carol", "x")) is None


def test_resolve_through_file_raises_not_a_directory(ns):
    with pytest.raises(NotADirectory):
        ns.resolve(("home", "alice", "notes.txt", "deeper"))
    assert ns.try_resolve(("home", "alice", "notes.txt", "deeper")) is None
    ns.resolution_memo.verify_invariants()


def test_try_resolve_memo_hit_matches_cold_walk(ns):
    path = ("home", "alice", "src", "main.c")
    first = ns.try_resolve(path)
    hits_before = ns.resolution_memo.hits
    second = ns.try_resolve(path)  # memo hit
    assert second is first
    assert ns.resolution_memo.hits > hits_before
    cold = Namespace()
    build_tree(cold, {"home": {"alice": {"src": {"main.c": 50}}}})
    assert cold.resolve(path).ino is not None  # sanity: path is real


# ----------------------------------------------------------------------
# invalidation on structural mutations
# ----------------------------------------------------------------------
def test_rename_invalidates_old_and_serves_new(ns):
    old = ("home", "alice", "notes.txt")
    new = ("home", "bob", "notes.txt")
    ino = ns.resolve(old).ino  # memoised
    epoch = ns.structure_epoch
    ns.rename(old, new)
    assert ns.structure_epoch > epoch
    assert ns.try_resolve(old) is None
    assert ns.resolve(new).ino == ino
    ns.resolution_memo.verify_invariants()


def test_rename_directory_invalidates_cached_subtree(ns):
    deep = ("home", "alice", "src", "main.c")
    ns.resolve(deep)                      # memoise a path through the dir
    ns.ancestors(ns.resolve(deep).ino)    # and a chain through it
    ns.rename(("home", "alice"), ("home", "alice2"))
    with pytest.raises(FileNotFound):
        ns.resolve(deep)
    assert ns.resolve(("home", "alice2", "src", "main.c")).is_file
    ns.resolution_memo.verify_invariants()


def test_unlink_invalidates_path(ns):
    path = ("home", "bob", "todo.txt")
    ns.resolve(path)
    ns.unlink(path)
    assert ns.try_resolve(path) is None
    with pytest.raises(FileNotFound):
        ns.resolve(path)
    ns.resolution_memo.verify_invariants()


def test_create_after_unlink_resolves_fresh_inode(ns):
    path = ("home", "bob", "todo.txt")
    old_ino = ns.resolve(path).ino
    ns.unlink(path)
    fresh = ns.create_file(path)
    assert ns.resolve(path).ino == fresh.ino != old_ino
    ns.resolution_memo.verify_invariants()


def test_ancestors_chain_invalidated_by_rename(ns):
    ino = ns.resolve(("home", "alice", "src", "main.c")).ino
    before = [a.ino for a in ns.ancestors(ino)]
    assert list(ns.ancestor_inos(ino)) == before
    ns.rename(("home", "alice", "src"), ("usr", "src"))
    after = [a.ino for a in ns.ancestors(ino)]
    assert after != before
    assert list(ns.ancestor_inos(ino)) == after
    ns.resolution_memo.verify_invariants()


def test_creations_do_not_invalidate(ns):
    ns.resolve(("home", "alice", "notes.txt"))
    invals = ns.resolution_memo.invalidations
    ns.mkdir(("home", "alice", "newdir"))
    ns.create_file(("home", "alice", "newdir", "f.txt"))
    assert ns.resolution_memo.invalidations == invals
    ns.resolution_memo.verify_invariants()


def test_memo_capacity_eviction_keeps_index_consistent():
    ns = Namespace()
    build_tree(ns, {"d": {f"f{i}.txt": i + 1 for i in range(32)}})
    ns.enable_resolution_memo(capacity=4)
    for i in range(32):
        ns.resolve(("d", f"f{i}.txt"))
    memo = ns.resolution_memo
    assert len(memo.paths) <= 4
    memo.verify_invariants()
    # evicted entries still resolve correctly (just cold)
    assert ns.resolve(("d", "f0.txt")).is_file


def test_disable_detaches_and_clears(ns):
    ns.resolve(("usr", "bin", "ls"))
    assert len(ns.resolution_memo) > 0
    ns.disable_resolution_memo()
    assert ns.resolution_memo is None
    assert ns.resolve(("usr", "bin", "ls")).is_file  # plain walk still works


def test_memo_survives_deepcopy_independently(ns):
    ns.resolve(("home", "alice", "notes.txt"))
    clone = copy.deepcopy(ns)
    clone.unlink(("home", "alice", "notes.txt"))
    # the original's memo must be untouched by the clone's mutation
    assert ns.resolve(("home", "alice", "notes.txt")).is_file
    assert clone.try_resolve(("home", "alice", "notes.txt")) is None
    ns.resolution_memo.verify_invariants()
    clone.resolution_memo.verify_invariants()


def test_memo_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ResolutionMemo(capacity=0)


# ----------------------------------------------------------------------
# invalidation through the full namespace stack: deep chains, recreation
# ----------------------------------------------------------------------
@pytest.fixture
def memo_ns():
    namespace = Namespace()
    build_tree(namespace, {
        "a": {"b": {"c": {"f.txt": 10}}, "g.txt": 20},
    })
    namespace.enable_resolution_memo()
    return namespace


def test_memo_rename_invalidates_deep_chain(memo_ns):
    ns = memo_ns
    deep = ("a", "b", "c", "f.txt")
    ino = ns.resolve(deep).ino
    ns.ancestors(ino)  # memoise the chain as well as the path
    before = ns.resolution_memo.invalidations
    ns.rename(("a", "b"), ("a", "b2"))
    assert ns.resolution_memo.invalidations > before
    assert ns.try_resolve(deep) is None
    assert ns.resolve(("a", "b2", "c", "f.txt")).ino == ino
    ns.resolution_memo.verify_invariants()


def test_memo_unlink_then_recreate(memo_ns):
    ns = memo_ns
    path = ("a", "g.txt")
    old = ns.resolve(path).ino
    ns.unlink(path)
    assert ns.try_resolve(path) is None
    fresh = ns.create_file(path)
    assert ns.resolve(path).ino == fresh.ino != old
    ns.resolution_memo.verify_invariants()
