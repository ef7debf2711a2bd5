"""Smoke tests: the runnable examples must keep running.

Each fast example is executed in-process (fresh module namespace) and must
complete without raising.  The slow sweep examples (strategy_comparison,
workload_shift) are exercised indirectly by the benchmark suite, which
runs the same experiment code.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "flash_crowd.py",
    "scientific_burst.py",
    "failover.py",
    "custom_strategy.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    path = EXAMPLES / script
    assert path.exists(), f"example missing: {script}"
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_all_examples_are_documented():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert text.startswith("#!/usr/bin/env python3"), script.name
        assert '"""' in text.splitlines()[1], (
            f"{script.name} missing a module docstring")
