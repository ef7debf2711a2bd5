"""Message-type invariants: the shared empty-locations mapping, and the
distribution info (§4.4 reply hints) checked by content against an
uncached walk of the dentry tree."""

import pytest

from repro import _fastpath
from repro.api import build_simulation, shift_config
from repro.mds import OpType
from repro.mds.messages import ANY_NODE, EMPTY_LOCATIONS, MdsReply
from repro.mds.node import MdsNode
from repro.namespace import path as p

from .conftest import make_cluster, run_request


def test_replies_share_one_immutable_empty_locations():
    """A reply without hints carries the shared read-only mapping — no
    fresh dict per reply, and no way to corrupt a neighbour's view."""
    r1 = MdsReply(ok=True, served_by=0, op=OpType.STAT, path=p.parse("/x"))
    r2 = MdsReply(ok=False, served_by=1, op=OpType.OPEN, path=p.parse("/y"))
    assert r1.locations is EMPTY_LOCATIONS
    assert r2.locations is EMPTY_LOCATIONS
    assert len(EMPTY_LOCATIONS) == 0
    with pytest.raises(TypeError):
        r1.locations[p.parse("/x")] = 3  # mappingproxy: read-only


def test_empty_locations_survive_real_replies():
    """Served requests that need no hints reuse the singleton end to end."""
    env, ns, cluster = make_cluster()
    reply = run_request(env, cluster, OpType.STAT, "/home/alice/notes.txt")
    assert reply.ok
    # DynamicSubtree clients cannot compute locations, so hints are present
    assert reply.locations is not EMPTY_LOCATIONS
    assert reply.locations[()] == ANY_NODE


# ----------------------------------------------------------------------
# distribution info by content
# ----------------------------------------------------------------------
def expected_hints(cluster, path):
    """The hints ``path`` should carry, from first principles: follow
    ``children`` from the root until a component is missing or a file is
    in the way, asking the strategy's uncached authority hook."""
    ns, strategy = cluster.ns, cluster.strategy
    hints = {(): ANY_NODE}
    node = ns.root
    for depth, name in enumerate(path, 1):
        if not node.is_dir or name not in node.children:
            break
        node = ns.inode(node.children[name])
        hints[path[:depth]] = (ANY_NODE if node.ino in cluster.hot_inos
                               else strategy._authority_of_ino(node.ino))
    return hints


def hints_of(cluster, text):
    path = p.parse(text)
    served = cluster.nodes[0]._distribution_info(path)
    assert served == expected_hints(cluster, path)
    return served


def test_hints_follow_a_hot_set_toggle():
    env, ns, cluster = make_cluster()
    text = "/home/alice/src/main.c"
    src = p.parse("/home/alice/src")
    owner = cluster.strategy.authority_of_ino(ns.resolve(src).ino)
    assert hints_of(cluster, text)[src] == owner

    cluster.hot_inos.add(ns.resolve(src).ino)
    hot = hints_of(cluster, text)
    assert hot[src] == ANY_NODE
    assert hot[p.parse(text)] == owner  # only the hot prefix changed

    cluster.hot_inos.clear()
    assert hints_of(cluster, text)[src] == owner


def test_hints_follow_a_delegation():
    env, ns, cluster = make_cluster()
    text = "/home/alice/src/main.c"
    src_ino = ns.resolve(p.parse("/home/alice/src")).ino
    before = hints_of(cluster, text)
    moved_to = (before[p.parse(text)] + 1) % cluster.n_mds

    # ``delegate`` reports the new partition state through
    # ``_authority_changed()``, as every partition mutation must
    cluster.strategy.delegate(src_ino, moved_to)
    after = hints_of(cluster, text)
    assert after[p.parse("/home/alice/src")] == moved_to
    assert after[p.parse(text)] == moved_to
    assert after[p.parse("/home/alice")] == before[p.parse("/home/alice")]


def test_hints_grow_when_mkdir_extends_a_short_walk():
    env, ns, cluster = make_cluster()
    text = "/home/alice/newdir/readme"
    short = hints_of(cluster, text)
    assert len(short) == 3  # root, home, alice: newdir is missing

    ns.mkdir(p.parse("/home/alice/newdir"), mode=0o755, owner=0, mtime=0.0)
    extended = hints_of(cluster, text)
    assert len(extended) == 4
    assert p.parse("/home/alice/newdir") in extended


def test_hints_shrink_when_unlink_cuts_a_walk_short():
    env, ns, cluster = make_cluster()
    text = "/home/alice/src/main.c"
    ns.resolve(p.parse(text))  # a memoised walk the unlink must drop
    assert len(hints_of(cluster, text)) == 5

    ns.unlink(p.parse(text))
    cut = hints_of(cluster, text)
    assert len(cut) == 4
    assert p.parse(text) not in cut


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "reference"])
def test_every_reply_hint_of_a_shift_run_matches_an_uncached_walk(
        monkeypatch, fastpath):
    """Run-level oracle over a workload with both migrations and
    traffic-control replication: every hint mapping any node builds must
    equal the uncached walk at that instant."""
    monkeypatch.setattr(_fastpath, "ENABLED", fastpath)
    served = MdsNode._distribution_info
    checked = []

    def checking(node, path):
        hints = served(node, path)
        assert hints == expected_hints(node.cluster, path)
        checked.append(path)
        return hints

    monkeypatch.setattr(MdsNode, "_distribution_info", checking)
    cfg = shift_config("DynamicSubtree", 0.05, seed=42)
    sim = build_simulation(cfg)
    sim.run_to(cfg.run_until_s)

    nodes = sim.cluster.nodes
    assert (sim.cluster.ns.resolution_memo is not None) is fastpath
    assert sum(node.stats.migrations_out for node in nodes) > 0
    assert sum(node.stats.replications_pushed for node in nodes) > 0
    assert len(checked) > 1000
