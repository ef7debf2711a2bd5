"""``Strategy.owned_entries`` against its contract, on every strategy.

The hook prices a directory prefetch (§4.5) with one authority decision
per directory object.  Whatever shortcut a strategy takes, the result must
be exactly ``[i for i in inos if authority_of_ino(i) == node_id]`` — same
entries, same order — across nested delegations, fragmented directories
and hard links whose inode is embedded in another directory.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.namespace import FsError, Namespace, ROOT_INO, build_tree
from repro.namespace import path as p
from repro.partition import make_strategy, strategy_names

TREE = {
    "a": {"b": {"f1": 1, "f2": 2, "c": {"g1": 3}}, "h1": 4},
    "big": {f"e{i}": 1 for i in range(12)},
    "x": {"y": {"z": {"leaf": 5}}},
}

OPS = ("mkdir", "create", "link", "unlink", "rename", "delegate",
       "undelegate", "fragment", "unfragment")


def filter_oracle(strategy, inos, node_id):
    return [ino for ino in inos if strategy.authority_of_ino(ino) == node_id]


def assert_hook_matches(ns, strategy):
    for node in list(ns.iter_subtree(ROOT_INO)):
        if not node.is_dir or not node.children:
            continue
        entries = list(node.children.values())
        # the whole object, and the prefetch shape (the fetched entry left
        # out); both keep directory order
        for inos in (entries, entries[1:], entries[::-1]):
            for node_id in range(strategy.n_mds):
                assert strategy.owned_entries(node.ino, inos, node_id) == \
                    filter_oracle(strategy, inos, node_id), (
                        f"dir {ns.path_of(node.ino)} node {node_id}")


def apply(ns, strategy, op, a, b, fresh):
    """Apply one random mutation; structurally invalid ones are no-ops."""
    dirs = [n for n in ns.iter_subtree(ROOT_INO) if n.is_dir]
    directory = dirs[a % len(dirs)]
    other = dirs[b % len(dirs)]
    dentries = [(d, name) for d in dirs for name in sorted(d.children)]
    try:
        if op == "mkdir":
            ns.mkdir(ns.path_of(directory.ino) + (f"d{next(fresh)}",))
        elif op == "create":
            ns.create_file(ns.path_of(directory.ino) + (f"f{next(fresh)}",))
        elif op == "link":
            files = [n for n in ns.iter_subtree(ROOT_INO) if n.is_file]
            if files:
                target = files[b % len(files)]
                ns.link(ns.path_of(target.ino),
                        ns.path_of(directory.ino) + (f"l{next(fresh)}",))
        elif op in ("unlink", "rename") and dentries:
            parent, name = dentries[a % len(dentries)]
            path = ns.path_of(parent.ino) + (name,)
            if op == "unlink":
                ns.unlink(path)
            else:
                ns.rename(path,
                          ns.path_of(other.ino) + (f"r{next(fresh)}",))
        elif op == "delegate" and hasattr(strategy, "delegate"):
            strategy.delegate(directory.ino, b % strategy.n_mds)
        elif op == "undelegate" and hasattr(strategy, "undelegate"):
            nested = sorted(ino for ino in strategy.delegations
                            if ino != ROOT_INO)
            if nested:
                strategy.undelegate(nested[b % len(nested)])
        elif op == "fragment" and hasattr(strategy, "fragment_directory"):
            strategy.fragment_directory(directory.ino)
        elif op == "unfragment" and hasattr(strategy,
                                            "unfragment_directory"):
            strategy.unfragment_directory(directory.ino)
    except FsError:
        pass


@pytest.mark.parametrize("name", strategy_names())
@settings(max_examples=40, deadline=None)
@given(n_mds=st.integers(1, 4),
       program=st.lists(st.tuples(st.sampled_from(OPS),
                                  st.integers(0, 10**6),
                                  st.integers(0, 10**6)), max_size=30))
def test_hook_equals_the_authority_filter(name, n_mds, program):
    ns = Namespace()
    build_tree(ns, TREE)
    strategy = make_strategy(name, n_mds)
    strategy.bind(ns)
    fresh = itertools.count()
    for op, a, b in program:
        apply(ns, strategy, op, a, b, fresh)
        assert_hook_matches(ns, strategy)


def test_every_branch_of_the_subtree_hook():
    """Nested delegation, fragmentation and both kinds of hard link."""
    ns = Namespace()
    build_tree(ns, TREE)
    strategy = make_strategy("DynamicSubtree", 3)
    strategy.bind(ns)
    ino = lambda text: ns.resolve(p.parse(text)).ino  # noqa: E731
    strategy.delegate(ino("/big"), 0)
    strategy.fragment_directory(ino("/big"))
    ns.mkdir(p.parse("/big/sub"))
    strategy.delegate(ino("/big/sub"), 2)
    # a link *into* the fragmented directory (inode embedded in /a/b) and
    # a link *out of* it (inode embedded in /big, named from /a)
    ns.link(p.parse("/a/b/f1"), p.parse("/big/alias"))
    ns.link(p.parse("/big/e3"), p.parse("/a/alias"))
    strategy.fragment_directory(ino("/a"))
    assert_hook_matches(ns, strategy)
    owners = {strategy.authority_of_ino(i)
              for i in ns.inode(ino("/big")).children.values()}
    assert len(owners) > 1  # the hash really scatters the entries


def test_fragmented_directory_names_each_entry_once(monkeypatch):
    """A prefetch of a giant fragmented directory stays linear: no
    per-entry name lookup (``_authority_of_ino`` scans the directory)."""
    ns = Namespace()
    build_tree(ns, {"giant": {f"f{i}": 1 for i in range(300)}})
    strategy = make_strategy("DynamicSubtree", 4)
    calls = []
    original = strategy._authority_of_ino
    monkeypatch.setattr(strategy, "_authority_of_ino",
                        lambda i: calls.append(i) or original(i))
    strategy.bind(ns)
    giant = ns.resolve(p.parse("/giant")).ino
    strategy.fragment_directory(giant)
    inos = list(ns.inode(giant).children.values())
    owned = [strategy.owned_entries(giant, inos, n) for n in range(4)]
    assert set(calls) <= {giant}
    assert owned == [filter_oracle(strategy, inos, n) for n in range(4)]
