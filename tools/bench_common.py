"""Shared bench-report plumbing for the ``tools/bench_*`` scripts.

Every bench tool follows the same report discipline:

* the **baseline** is read from the previously committed report at
  ``--out`` rather than a number frozen in the source, so each run is
  compared against the last recorded state of the tree;
* each run appends one entry to the report's ``trajectory`` list,
  keeping the full history of recorded rates across PRs;
* a regression beyond :data:`REGRESSION_TOLERANCE` against that prior
  baseline prints a **warning but never fails the run** — absolute rates
  depend on host speed and load (or, for simulated quantities, on
  deliberate model changes); the hard failures are the determinism
  checks each tool performs itself.

The tools keep thin module-level wrappers around these helpers (their
names are part of the tools' tested surface); the mechanics live here
once.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Sequence

#: warn-only regression threshold against the prior recorded baseline
REGRESSION_TOLERANCE = 0.15


def load_prior_report(path: str):
    """Previously committed report at ``path``, or ``None``."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except (OSError, ValueError):
        return None


def baseline_from_prior(prior, keys: Sequence[str],
                        fallback: float) -> float:
    """Walk ``keys`` into ``prior`` for the recorded baseline rate.

    Falls back to ``fallback`` when the report is missing, malformed, or
    predates the metric.
    """
    node = prior
    for key in keys:
        if not node:
            return fallback
        node = node.get(key) if isinstance(node, dict) else None
    if node:
        return float(node)
    return fallback


def trajectory_from_prior(prior) -> list:
    """The prior report's trajectory list (a fresh copy, never an alias)."""
    if not prior:
        return []
    return list(prior.get("trajectory", []))


def warn_if_regressed(current: float, baseline: float, *, what: str,
                      hint: str,
                      tolerance: float = REGRESSION_TOLERANCE) -> bool:
    """Print the standard warn-only regression message; ``True`` when the
    current rate fell more than ``tolerance`` below the prior baseline."""
    regressed = current < (1.0 - tolerance) * baseline
    if regressed:
        print(f"WARNING: {what} {current:.0f} is >{tolerance:.0%} below "
              f"the prior recorded {baseline:.0f} ({hint})")
    return regressed


def host_fields() -> dict:
    """The host/provenance fields every bench report carries.

    ``kernel_backend``/``model_backend`` are the backends the current
    gates resolve to, so a report produced after a silent
    compiled->reference fallback is still distinguishable from a
    genuinely compiled run.
    """
    from repro.model.backend import compiled_model_viable, resolve_model
    from repro.sim.backend import compiled_viable, resolve_kernel

    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "kernel_backend": resolve_kernel(),
        "compiled_viable": compiled_viable(),
        "model_backend": resolve_model(),
        "compiled_model_viable": compiled_model_viable(),
    }


def write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=2)
        fp.write("\n")
    print(f"report written to {path}")
