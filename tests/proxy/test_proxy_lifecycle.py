"""Pinned lifecycle of proxied requests on a tiny scripted tier.

One proxy in front of a two-node cluster whose inboxes hold one request,
fed a fixed script of requests that walks every branch of a request's
trip through the proxy: plain forwarding, absorption from the reply
cache, stale-while-revalidate past the TTL, coalescing onto an in-flight
fetch, admission-control sheds retried with backoff (coalesced waiters
flushed with the shed reply), a contended proxy CPU (same-instant
arrivals), mutation invalidation, and a non-hot read of a key whose hot
fetch is in flight.  Each reply's outcome and delivery time, and the
proxy's counters, are pinned exactly, with the fast lane on and off.
"""

import dataclasses

import pytest

from repro.mds import MdsCluster, MdsRequest, OpType, SimParams
from repro.namespace import Namespace, build_tree
from repro.namespace import path as p
from repro.partition import make_strategy
from repro.proxy import ProxySpec, ProxyTier
from repro.sim import Environment

TREE = {
    "home": {
        "alice": {"src": {"main.c": 50, "util.c": 30}, "notes.txt": 10},
        "bob": {"doc": {"thesis.tex": 100}, "todo.txt": 5},
        "dave": {"b.txt": 1},
        "erin": {"c.txt": 1},
    },
    "usr": {"pkg0": {"bin0": 70, "bin1": 80},
            "pkg1": {"lib": 40},
            "pkg2": {"etc": 60}},
}

SPEC = ProxySpec(n_proxies=1, cpu_op_s=0.0001, cache_ttl_s=0.05,
                 hot_threshold=1.5, popularity_halflife_s=100.0,
                 overload_retries=4, retry_backoff_s=0.003)

NOTES = "/home/alice/notes.txt"
THESIS = "/home/bob/doc/thesis.tex"
TODO = "/home/bob/todo.txt"
MAIN = "/home/alice/src/main.c"
LIB = "/usr/pkg1/lib"

#: (submit time, op, path, destination node)
SCRIPT = [
    # same-instant arrivals contend for the proxy CPU; NOTES is forwarded
    # to its authority, node 1, whose one-slot inbox holds TODO, so it is
    # shed (a non-hot read is never retried)
    (0.000, OpType.OPEN, NOTES, 0),
    (0.000, OpType.STAT, TODO, 1),
    # NOTES is hot now but not cached: a designated fetch fills the cache,
    # and the next read within the TTL is absorbed
    (0.050, OpType.OPEN, NOTES, 0),
    (0.080, OpType.OPEN, NOTES, 0),
    # past the TTL: a designated fetch refreshes the entry, and an arrival
    # during the refresh is served stale
    (0.200, OpType.OPEN, NOTES, 0),
    (0.2002, OpType.OPEN, NOTES, 0),
    # THESIS: a non-hot read, a hot designated fetch and a coalesced
    # waiter; node 1 sheds the fetch while it forwards the non-hot read,
    # the waiter gets the shed reply, the fetch retries, and the non-hot
    # read's reply pops the in-flight entry during the backoff
    (0.300, OpType.STAT, THESIS, 1),
    (0.3001, OpType.STAT, THESIS, 1),
    (0.3002, OpType.STAT, THESIS, 1),
    # a mutation goes upstream and invalidates the cached NOTES reply
    (0.400, OpType.SETATTR, NOTES, 0),
    # MAIN's stale refresh is shed three times while a cold read keeps
    # the inboxes busy; arrivals meanwhile are served stale
    (0.500, OpType.STAT, MAIN, 0),
    (0.600, OpType.OPEN, "/usr/pkg0/bin0", 0),
    (0.6001, OpType.STAT, MAIN, 0),
    (0.6004, OpType.STAT, MAIN, 0),
    (0.6006, OpType.STAT, MAIN, 0),
    # NOTES after the invalidation: hot with nothing cached, so one
    # designated fetch carries a coalesced waiter to success
    (0.650, OpType.OPEN, NOTES, 1),
    (0.6501, OpType.OPEN, NOTES, 1),
    # LIB: a non-hot read is in flight at node 1 when the hot fetch is
    # shed there and at busy node 0; the non-hot read's reply pops the
    # in-flight entry between two shed replies of the designated fetch,
    # which must keep retrying regardless
    (0.6995, OpType.OPEN, "/home/dave/b.txt", 0),
    (0.700, OpType.OPEN, LIB, 1),
    (0.7001, OpType.OPEN, LIB, 1),
    (0.7096, OpType.OPEN, "/usr/pkg2/etc", 1),
    (0.7215, OpType.OPEN, "/home/erin/c.txt", 0),
]


#: the same tier without retries: a shed refresh falls back to the stale
#: cached reply at once
NO_RETRY_SPEC = dataclasses.replace(SPEC, overload_retries=0)
NO_RETRY_SCRIPT = [
    (0.000, OpType.STAT, TODO, 0),
    (0.0995, OpType.OPEN, "/home/dave/b.txt", 0),
    (0.100, OpType.STAT, TODO, 0),
    (0.1001, OpType.STAT, TODO, 0),
]


def run_script(fastlane, spec, script):
    """Run ``script`` through a one-proxy tier; returns every reply as
    ``(index, delivered at, ok, error, served_by, forwarded, latency_s)``
    in delivery order, and the tier's counters."""
    env = Environment(fastlane=fastlane)
    ns = Namespace()
    build_tree(ns, TREE)
    strategy = make_strategy("StaticSubtree", 2)
    strategy.bind(ns)
    cluster = MdsCluster(env, ns, strategy, SimParams(inbox_capacity=1))
    cluster.start()
    tier = ProxyTier(env, cluster, spec)
    replies = []

    def submit_at(index, at, op, path, dest):
        def _submit(_ev):
            request = MdsRequest(op=op, path=p.parse(path), client_id=index)
            done = tier.submit(dest, request)
            done.callbacks.append(lambda ev: replies.append((
                index, env.now, ev.value.ok, ev.value.error,
                ev.value.served_by, ev.value.forwarded,
                ev.value.latency_s)))

        env.timeout(at).callbacks.append(_submit)

    for index, (at, op, path, dest) in enumerate(script):
        submit_at(index, at, op, path, dest)
    env.run(until=1.0)
    return replies, tier.stats_dict()


EXPECTED = [
    (0, 0.00095, False, "overloaded: inbox full", 1, 1, 0.00075),
    (1, 0.017549999999999996, True, None, 0, 1, 0.017349999999999997),
    (2, 0.05985, True, None, 1, 1, 0.009649999999999999),
    (3, 0.08050000000000002, True, None, 1, 0, 0.0003000000000000086),
    (5, 0.2007, True, None, 1, 0, 0.0002999999999999947),
    (4, 0.20145000000000002, True, None, 1, 1, 0.0012500000000000011),
    (8, 0.3007999999999999, False, "overloaded: inbox full", 1, 0,
     0.00039999999999990044),
    (6, 0.3094499999999999, True, None, 0, 1, 0.009249999999999925),
    (7, 0.31094999999999984, True, None, 0, 1, 0.010649999999999882),
    (9, 0.4019499999999999, True, None, 1, 1, 0.0017499999999999183),
    (10, 0.5094499999999998, True, None, 1, 1, 0.00924999999999987),
    (13, 0.6009, True, None, 1, 0, 0.00029999999999996696),
    (14, 0.6011, True, None, 1, 0, 0.00029999999999996696),
    (11, 0.6174499999999998, True, None, 1, 1, 0.017249999999999877),
    (12, 0.6231499999999998, True, None, 1, 1, 0.022849999999999815),
    (16, 0.6511999999999999, True, None, 1, 0, 0.0008999999999999009),
    (15, 0.6511999999999999, True, None, 1, 0, 0.0009999999999998899),
    (17, 0.7086999999999999, True, None, 0, 0, 0.008999999999999897),
    (20, 0.7102999999999999, False, "overloaded: inbox full", 1, 0,
     0.0004999999999999449),
    (18, 0.7166999999999999, True, None, 1, 0, 0.01649999999999996),
    (21, 0.7306999999999999, True, None, 0, 0, 0.008999999999999897),
    (19, 0.7470999999999998, True, None, 1, 0, 0.04679999999999984),
]
EXPECTED_STATS = {"requests": 22, "absorbed": 4, "coalesced": 2,
                  "forwarded": 25, "invalidations": 1, "retries": 9}

NO_RETRY_EXPECTED = [
    (0, 0.0172, True, None, 0, 0, 0.017),
    (3, 0.10060000000000002, True, None, 0, 0, 0.00030000000000002247),
    (2, 0.10070000000000003, True, None, 0, 0, 0.0005000000000000143),
    (1, 0.10870000000000002, True, None, 0, 0, 0.009000000000000008),
]
NO_RETRY_STATS = {"requests": 4, "absorbed": 2, "coalesced": 0,
                  "forwarded": 3, "invalidations": 0, "retries": 0}


@pytest.mark.parametrize("fastlane", [True, False], ids=["lane-on",
                                                         "lane-off"])
def test_scripted_trips_are_pinned(fastlane):
    replies, stats = run_script(fastlane, SPEC, SCRIPT)
    assert replies == EXPECTED
    assert stats == EXPECTED_STATS


@pytest.mark.parametrize("fastlane", [True, False], ids=["lane-on",
                                                         "lane-off"])
def test_shed_refresh_without_retries_serves_stale(fastlane):
    replies, stats = run_script(fastlane, NO_RETRY_SPEC, NO_RETRY_SCRIPT)
    assert replies == NO_RETRY_EXPECTED
    assert stats == NO_RETRY_STATS
