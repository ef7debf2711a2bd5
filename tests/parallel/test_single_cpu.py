"""Single-CPU hosts: auto mode stays serial.

On a 1-CPU box the process pool can only add overhead, so ``resolve_mode``
must pick serial without being told.
"""

from repro.parallel import PARALLEL_ENV, resolve_mode


def tiny(seed=1, **kw):
    from repro.api import scaling_config
    return scaling_config("DynamicSubtree", 2, 0.05, seed=seed, **kw)


def test_auto_mode_stays_serial_on_one_cpu(monkeypatch):
    monkeypatch.delenv(PARALLEL_ENV, raising=False)
    import repro.parallel.executor as executor
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 1)
    assert resolve_mode([tiny(seed=s) for s in range(4)]) == (False, 1)


def test_auto_mode_goes_parallel_with_cpus(monkeypatch):
    monkeypatch.delenv(PARALLEL_ENV, raising=False)
    import repro.parallel.executor as executor
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 8)
    parallel, workers = resolve_mode([tiny(seed=s) for s in range(4)])
    assert parallel is True and workers == 4
