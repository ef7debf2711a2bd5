"""Property test: the cached per-directory child listings never go stale.

``Namespace.subdir_names`` and ``file_names`` memoise each directory's
listing until one of the mutations that touches its entries drops it.
After every step of a random create / mkdir / link / unlink / rmdir /
cross-directory rename sequence, both must equal a fresh scan of the
directory in entry order, on the namespace and on a ``deepcopy`` of it
(the snapshot path builds every simulation's namespace that way).
"""

import copy

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.namespace import FsError, Namespace
from repro.namespace import path as p

OPS = ["create", "mkdir", "link", "unlink", "rmdir", "rename"]
NAMES = ["a", "b", "c", "d", "e"]


def _scan(ns, node):
    dirs = [n for n, ino in node.children.items() if ns.inode(ino).is_dir]
    files = [n for n, ino in node.children.items() if ns.inode(ino).is_file]
    return dirs, files


def _check(ns):
    for node in ns.iter_subtree(1):
        if node.is_dir:
            dirs, files = _scan(ns, node)
            assert ns.subdir_names(node) == dirs
            assert ns.file_names(node) == files


def _paths(ns):
    dirs, files = [], []
    for node in ns.iter_subtree(1):
        (dirs if node.is_dir else files).append(ns.path_of(node.ino))
    return dirs, files


def _apply(ns, op, i, j, name):
    dirs, files = _paths(ns)
    parent = dirs[i % len(dirs)]
    new = p.join(parent, name)
    try:
        if op == "create":
            ns.create_file(new)
        elif op == "mkdir":
            ns.mkdir(new)
        elif op == "link" and files:
            ns.link(files[j % len(files)], new)
        elif op == "unlink" and files:
            ns.unlink(files[j % len(files)])
        elif op == "rmdir" and len(dirs) > 1:
            ns.unlink(dirs[1 + j % (len(dirs) - 1)])
        elif op == "rename":
            sources = dirs[1:] + files
            if sources:
                ns.rename(sources[j % len(sources)], new)
    except FsError:
        pass  # exists, not empty, into itself: a no-op step


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 99),
                                st.integers(0, 99), st.sampled_from(NAMES)),
                      min_size=1, max_size=40))
def test_listings_match_fresh_scan(steps):
    ns = Namespace()
    for op, i, j, name in steps:
        _check(ns)  # fill the memo so the next mutation must drop entries
        _apply(ns, op, i, j, name)
        _check(ns)
        snapshot = copy.deepcopy(ns)
        _check(snapshot)
    # the copy's memo is its own: mutating one side never stales the other
    snapshot = copy.deepcopy(ns)
    _apply(snapshot, "create", 0, 0, "fresh")
    _apply(ns, "mkdir", 0, 0, "fresh")
    _check(snapshot)
    _check(ns)
