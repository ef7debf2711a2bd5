"""Suite-wide options.

``--fastpath-off`` runs the session with the request-path fast lane
switched off (:mod:`repro._fastpath`), so every simulation takes the
memo-free golden path.  Tests that set the switch themselves (with
``monkeypatch``) still choose their own mode.
"""

from repro import _fastpath


def pytest_addoption(parser):
    parser.addoption("--fastpath-off", action="store_true",
                     help="switch the request-path fast lane off for the "
                          "whole session")


def pytest_configure(config):
    if config.getoption("fastpath_off"):
        _fastpath.ENABLED = False
