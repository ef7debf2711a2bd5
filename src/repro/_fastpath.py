"""Request-path fast-lane switch (test-only).

The fast lane — the namespace resolution memo, the partition-strategy
authority cache and the kernel's event elision — is pure memoisation: with
correct invalidation it changes wall-clock cost only, never simulated
behaviour.  The memo-off path is kept as the golden oracle the tests
compare against: they set :data:`ENABLED` to ``False`` (with
``monkeypatch``, or for a whole session with ``pytest --fastpath-off``)
and assert that fixed-seed ``Simulation.summary()`` metrics are
bit-identical either way.

The switch is read when a simulation is wired up (``MdsCluster.__init__`` /
``Strategy.bind`` / ``Environment.__init__``), not per request: the hot
path itself only ever does a ``is None`` check on the memo handle.
"""

from __future__ import annotations

#: the fast lane is on unless a test turns it off
ENABLED = True


def fastpath_enabled() -> bool:
    """True unless a test has switched the request-path fast lane off."""
    return ENABLED


__all__ = ["fastpath_enabled"]
