"""Model-backend selection: reference (pure python) vs compiled C.

PR 8 put the event calendar behind ``repro.sim.backend``; this module is
the same seam for the *model* hot spots — the metadata-cache LRU, the
resolution/ancestor memos, the epoch-keyed authority memo, and the
popularity decay counters.  The pure-python implementations in
``repro.cache.lru``, ``repro.namespace.memo`` and ``repro.mds.popularity``
are preserved byte-for-byte as the ``reference`` backend; the hand-written
C extension ``repro.model._cmodel`` is the ``compiled`` backend.

Selection is the one ``REPRO_BACKEND`` gate of :mod:`repro.sim.backend`,
shared with the kernel:

* ``REPRO_BACKEND=reference`` (the default) — the pure-python structures.
* ``REPRO_BACKEND=compiled``  — the C structures; **silently falls back**
  to reference when the extension is not built (an unbuilt optional
  extension must never break a run).

Anything else raises ``ValueError`` (strict parsing, like every other
gate).  An explicit gate — the argument of :func:`resolve_model` or
:func:`set_model_gate`, or a factory's ``model=`` — selects the model
half alone, for tests and diagnostics.

Both backends are *behaviour-identical*: every counter, exception type,
exception message and float expression matches, so fixed-seed summaries
are bit-identical across backends (enforced by ``tests/model/``).

At import time this module imports only :mod:`repro.sim.backend` (which
imports no other ``repro`` package) — it is imported by config/cache/
namespace/mds call sites and must stay cycle-free; the factory helpers
lazy-import the reference classes.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional

from ..sim.backend import BACKEND_ENV, COMPILED, REFERENCE, parse_backend_env

try:  # pragma: no cover - exercised only when the extension is built
    from . import _cmodel as _C
    _CMODEL_ERROR: Optional[str] = None
except ImportError as exc:  # pragma: no cover - default source checkout
    _C = None
    _CMODEL_ERROR = f"{type(exc).__name__}: {exc}"

#: has configure() been pushed into the extension yet?
_CONFIGURED = False

#: process-wide gate recorded by the last ``build_simulation`` call, so
#: runtime re-constructions (failover cache resets, proxy tiers spun up
#: mid-run) follow the same backend as the build that spawned them.
#: Last build wins; harmless because backends are behaviour-identical.
_GATE_OVERRIDE: Optional[str] = None


def compiled_model_viable() -> bool:
    """True when the ``repro.model._cmodel`` extension importable."""
    return _C is not None


def compiled_model_unavailable_reason() -> Optional[str]:
    """Why the compiled model cannot be used (None when it can)."""
    if _C is not None:
        return None
    return _CMODEL_ERROR or "repro.model._cmodel not built"


def set_model_gate(gate: Optional[str]) -> Optional[str]:
    """Record the resolved gate for this process; returns the previous one.

    Called by ``build_simulation`` so that model objects constructed later
    in the run (failover resets, proxies) pick the same backend.
    """
    global _GATE_OVERRIDE
    previous = _GATE_OVERRIDE
    _GATE_OVERRIDE = parse_backend_env(gate)
    return previous


def resolve_model(gate: Optional[str] = None) -> str:
    """The backend a construction with ``gate`` would use.

    Precedence: explicit ``gate`` argument > the process gate recorded by
    ``set_model_gate`` > the ``REPRO_BACKEND`` environment variable >
    ``reference``.  ``compiled`` falls back silently to ``reference`` when
    the extension is not built.
    """
    token = (parse_backend_env(gate) or _GATE_OVERRIDE
             or parse_backend_env(os.environ.get(BACKEND_ENV)))
    if token == COMPILED and _C is not None:
        return COMPILED
    return REFERENCE


def model_info(backend: Optional[str] = None) -> dict:
    """Provenance fields for summaries and bench reports."""
    return {
        "model_backend": backend if backend is not None else resolve_model(),
        "compiled_model_viable": compiled_model_viable(),
    }


def _ensure_configured() -> Any:
    """The extension module, with the CacheCounters class installed."""
    global _CONFIGURED
    if _C is None:  # pragma: no cover - guarded by callers
        raise RuntimeError(
            "compiled model backend requested but repro.model._cmodel is "
            "not built; build it with `python tools/build_kernel.py`")
    if not _CONFIGURED:
        from ..cache.lru import CacheCounters
        _C.configure(CacheCounters)
        _CONFIGURED = True
    return _C


# ----------------------------------------------------------------------
# factories — the call sites (node, failover, proxy, tree, partition)
# construct through these so the gate applies uniformly
# ----------------------------------------------------------------------

def make_metadata_cache(capacity: int, *, model: Optional[str] = None):
    """A ``MetadataCache`` on the resolved backend."""
    if resolve_model(model) == COMPILED:
        return _ensure_configured().MetadataCache(capacity)
    from ..cache.lru import MetadataCache
    return MetadataCache(capacity)


def make_resolution_memo(capacity: int = 65536, *,
                         model: Optional[str] = None):
    """A ``ResolutionMemo`` on the resolved backend."""
    if resolve_model(model) == COMPILED:
        return _ensure_configured().ResolutionMemo(capacity)
    from ..namespace.memo import ResolutionMemo
    return ResolutionMemo(capacity)


def make_popularity_map(halflife_s: float, *, model: Optional[str] = None):
    """A ``PopularityMap`` on the resolved backend."""
    if resolve_model(model) == COMPILED:
        return _ensure_configured().PopularityMap(halflife_s)
    from ..mds.popularity import PopularityMap
    return PopularityMap(halflife_s)


def make_authority_memo(ns: Any, compute: Callable[[int], int], *,
                        model: Optional[str] = None):
    """An epoch-keyed authority memo, or ``None`` on the reference path.

    The reference implementation lives inline in
    ``repro.partition.base.Strategy`` (a plain dict plus epoch checks);
    returning ``None`` tells the strategy to keep that python path.
    """
    if resolve_model(model) == COMPILED:
        return _ensure_configured().AuthorityMemo(ns, compute)
    return None


__all__ = [
    "REFERENCE",
    "COMPILED",
    "compiled_model_viable",
    "compiled_model_unavailable_reason",
    "set_model_gate",
    "resolve_model",
    "model_info",
    "make_metadata_cache",
    "make_resolution_memo",
    "make_popularity_map",
    "make_authority_memo",
]
