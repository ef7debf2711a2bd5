"""Worker resolution with ``REPRO_PARALLEL`` unset.

On a 1-CPU box the process pool can only add overhead, so the sweep must
run serially without being told; with CPUs to spare it gets one worker
per CPU, at most one per config.
"""

from unittest import mock

import repro.parallel.executor as executor
from repro.experiments.config import PARALLEL_ENV
from repro.parallel import run_many


def tiny(seed=1, **kw):
    from repro.api import scaling_config
    return scaling_config("DynamicSubtree", 2, 0.05, seed=seed, **kw)


def test_auto_mode_stays_serial_on_one_cpu(monkeypatch):
    monkeypatch.delenv(PARALLEL_ENV, raising=False)
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 1)
    assert executor._workers(4) == 1
    with mock.patch.object(executor, "ProcessPoolExecutor") as pool:
        assert len(run_many([tiny(seed=s) for s in range(2)])) == 2
    pool.assert_not_called()


def test_auto_mode_goes_parallel_with_cpus(monkeypatch):
    monkeypatch.delenv(PARALLEL_ENV, raising=False)
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 8)
    assert executor._workers(4) == 4
    assert executor._workers(20) == 8
