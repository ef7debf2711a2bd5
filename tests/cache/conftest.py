"""Shared fixture for the cache suite.

The autouse fixture has one parameter, so every test id in this package
ends in ``[reference]``: the suite once ran per cache implementation, and
the suffix keeps recorded test ids stable.
"""

import pytest


@pytest.fixture(scope="module", autouse=True, params=["reference"])
def implementation(request):
    return request.param
