"""Import the benchmark's modules the way ``perfbench/run.py`` does.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

if not run.prepare():
    raise RuntimeError("perfbench tests need src/repro")


@pytest.fixture(autouse=True)
def _no_repro_env(monkeypatch):
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        monkeypatch.delenv(name)
