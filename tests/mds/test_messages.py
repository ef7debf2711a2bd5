"""Message-type invariants: the shared empty-locations mapping and the
cluster-wide distribution-info memo behind it."""

import pytest

from repro._fastpath import fastpath_enabled
from repro.mds import MdsRequest, OpType
from repro.mds.messages import ANY_NODE, EMPTY_LOCATIONS, MdsReply
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


def assert_memo_hit(served, expected):
    """The same hints always; the same mapping object only when the fast
    lane's memo served them (with it off every walk builds a new dict)."""
    assert served == expected
    if fastpath_enabled():
        assert served is expected


def verify_memo(cluster):
    """The memo's index invariants, when the fast lane built one."""
    if cluster._dist_memo is not None:
        cluster._dist_memo.verify_invariants()


def test_distribution_info_memo_hits_and_invalidates():
    """With the fast lane on, identical reply hints come from one shared
    mapping; hot-set, partition, and structure changes invalidate it —
    precisely, for the walks the change can actually affect."""
    env, ns, cluster = make_cluster()
    node = cluster.nodes[0]
    path = p.parse("/home/alice/src/main.c")
    first = node._distribution_info(path)
    second = node._distribution_info(path)
    assert_memo_hit(second, first)

    src_ino = ns.resolve(p.parse("/home/alice/src")).ino
    if cluster._dist_memo is not None:
        cluster._dist_memo.invalidate_ino(src_ino)  # hot toggle on the walk
    third = node._distribution_info(path)
    assert third is not second
    assert third == second  # same content: nothing actually moved

    ns.mkdir(p.parse("/home/alice/newdir"), mode=0o755, owner=0, mtime=0.0)
    fourth = node._distribution_info(path)
    # complete walk: a new dentry cannot change it
    assert_memo_hit(fourth, third)

    cluster.strategy._authority_changed()
    fifth = node._distribution_info(path)
    assert fifth is not fourth  # partition generation bumped: full clear

    ns.unlink(p.parse("/home/alice/src/main.c"))
    sixth = node._distribution_info(path)
    assert sixth is not fifth  # namespace reported the structural change
    assert len(sixth) < len(fifth)  # the walk now ends early
    verify_memo(cluster)


def test_truncated_distribution_walk_revalidates_on_creation():
    """A memoised walk that ended early (unresolvable component) must be
    recomputed once a creation could extend it — the staleness hole that
    ``dentry_add_epoch`` exists to close."""
    env, ns, cluster = make_cluster()
    node = cluster.nodes[0]
    path = p.parse("/home/alice/newdir/readme")
    short = node._distribution_info(path)
    assert len(short) < len(path) + 1  # walk stopped early
    assert_memo_hit(node._distribution_info(path), short)  # while truncated

    ns.mkdir(p.parse("/home/alice/newdir"), mode=0o755, owner=0, mtime=0.0)
    extended = node._distribution_info(path)
    assert extended is not short
    assert len(extended) == len(short) + 1  # one more component resolved


def test_hot_set_mutations_invalidate_only_affected_walks():
    """Dropping a hot item invalidates exactly the memoised walks that
    pass through it; unrelated paths keep their entries."""
    env, ns, cluster = make_cluster()
    node = cluster.nodes[0]
    ino = ns.resolve(p.parse("/usr/pkg0/bin0")).ino
    cluster.hot_inos.add(ino)
    node.replicas.register(ino, 1)

    through = node._distribution_info(p.parse("/usr/pkg0/bin0"))
    unrelated = node._distribution_info(p.parse("/home/alice/notes.txt"))

    def drop():
        yield from node._invalidate_replicas(ino)

    env.run(until=env.process(drop()))
    assert ino not in cluster.hot_inos
    assert node._distribution_info(p.parse("/usr/pkg0/bin0")) is not through
    assert_memo_hit(node._distribution_info(p.parse("/home/alice/notes.txt")),
                    unrelated)
    verify_memo(cluster)
