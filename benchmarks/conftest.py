"""Shared benchmark configuration.

Benchmarks double as the figure-regeneration harness: each ``test_fig*``
runs the corresponding paper experiment once (``benchmark.pedantic`` with a
single round — these are simulations, not microbenchmarks), prints the
same series the paper plots, and asserts the qualitative shape.

``REPRO_SCALE`` (default 0.5 here) trades fidelity for wall time, but
0.5 is the floor: the shape assertions hold from 0.5 upward — below
that the simulated systems are too small for the paper's contrasts to
bind (at 0.4 the recovery and lazy-update ablations already fail).

Figure sweeps go through :func:`repro.parallel.run_many`, which maps the
runner over independent configs on one worker process per CPU.  Set
``REPRO_PARALLEL=0`` to run them serially in-process (results are
bit-identical either way; only wall time changes) or ``REPRO_PARALLEL=<n>``
to pin the worker count.
"""

import os

import pytest


def bench_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.5"))


@pytest.fixture
def scale():
    return bench_scale()


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
