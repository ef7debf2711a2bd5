"""Shared fixtures for the kernel suites."""

import pytest

from repro.sim import CompiledEnvironment, Environment
from repro.sim.backend import compiled_viable

BACKENDS = [
    pytest.param(Environment, id="reference"),
    pytest.param(CompiledEnvironment, id="compiled",
                 marks=pytest.mark.skipif(
                     not compiled_viable(),
                     reason="compiled kernel extension not built "
                            "(python tools/build_kernel.py)")),
]


@pytest.fixture(params=BACKENDS)
def make_env(request):
    """Backend-parametrized Environment factory: same surface, both kernels."""
    return request.param
