"""Shared fixtures for the kernel suites."""

import pytest

from repro.sim import Environment


@pytest.fixture(params=[pytest.param(Environment, id="reference")])
def make_env(request):
    """The ``Environment`` class; the ``[reference]`` id keeps the test ids
    these suites recorded when they ran on two kernels."""
    return request.param
