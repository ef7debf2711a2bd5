"""Model-backend seam: reference (pure python) vs compiled C hot spots.

See :mod:`repro.model.backend` for the model half of the
``REPRO_BACKEND`` gate and the factories the cache/namespace/mds call
sites construct through, and ``src/repro/model/_cmodel.c`` for the
compiled implementations.
"""

from .backend import (
    COMPILED,
    REFERENCE,
    compiled_model_unavailable_reason,
    compiled_model_viable,
    make_authority_memo,
    make_metadata_cache,
    make_popularity_map,
    make_resolution_memo,
    model_info,
    resolve_model,
    set_model_gate,
)

__all__ = [
    "COMPILED",
    "REFERENCE",
    "compiled_model_unavailable_reason",
    "compiled_model_viable",
    "make_authority_memo",
    "make_metadata_cache",
    "make_popularity_map",
    "make_resolution_memo",
    "model_info",
    "resolve_model",
    "set_model_gate",
]
