"""Differential test: path-indexed reply-cache invalidation.

``ProxyNode._invalidate`` pops the ``(read op, path)`` keys a mutation
staled instead of scanning the whole reply cache.  The scan it replaced
is kept here as the oracle: on any cache a proxy can hold (only read
replies are ever remembered), both must drop the same keys, leave the
survivors in the same FIFO order and count the same invalidations.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.mds.messages import READ_ONLY_OPS, MdsRequest, OpType
from repro.proxy import ProxySpec
from repro.proxy.tier import ProxyNode
from repro.sim import Environment

PATHS = [(), ("a",), ("a", "b"), ("a", "c"), ("b",), ("b", "a"), ("c",)]
READS = sorted(READ_ONLY_OPS, key=lambda op: op.value)
MUTATIONS = sorted(set(OpType) - READ_ONLY_OPS, key=lambda op: op.value)


def scan_invalidate(cache, request):
    """The pre-index implementation: scan every key per touched path."""
    dropped = 0
    for path in (request.path, request.dst_path):
        if path is None:
            continue
        stale = [key for key in cache if key[1] == path]
        for key in stale:
            del cache[key]
            dropped += 1
    return dropped


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.tuples(st.sampled_from(READS),
                               st.sampled_from(PATHS)), max_size=30),
       op=st.sampled_from(MUTATIONS),
       path=st.sampled_from(PATHS),
       dst_path=st.none() | st.sampled_from(PATHS))
def test_indexed_invalidation_matches_scan(keys, op, path, dst_path):
    node = ProxyNode(Environment(), 0, tier=None, spec=ProxySpec())
    for i, key in enumerate(keys):
        node._cache.pop(key, None)  # re-insert moves to the back, as in
        node._cache[key] = (object(), float(i))  # ``_remember``
    oracle = dict(node._cache)
    request = MdsRequest(op=op, path=path, client_id=0, dst_path=dst_path)

    expected = scan_invalidate(oracle, request)
    node._invalidate(request)

    assert list(node._cache) == list(oracle)
    assert all(node._cache[k] is oracle[k] for k in oracle)
    assert node.stats.invalidations == expected
