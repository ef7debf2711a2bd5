"""Input-ordered sweep map over a process pool.

The figure experiments are embarrassingly parallel: a sweep is a list of
independent ``ExperimentConfig``\\ s (strategies × cluster sizes × seeds)
whose only shared state is read-only module code.  :func:`run_many` maps a
runner over such a list and returns exactly what
``[runner(c, **kwargs) for c in configs]`` returns:

* **Determinism** — every simulation seeds its own RNG streams from its
  config, and ``Executor.map`` yields results in input order, so the pool
  cannot perturb results; the serial path is the oracle the tests compare
  the pool against.
* **Snapshot memo** — each task runs inside
  :func:`repro.experiments._build.snapshot_memo`, serial or pooled, so
  tasks that share ``(scale, seed)`` reuse one generated namespace tree
  (each run still gets a private deep copy).
* **Failures** — a failing config raises its own exception; from a worker
  it carries the remote traceback as its ``__cause__``.  A hard worker
  crash (``BrokenProcessPool``) reruns the whole sweep serially
  in-process: results are deterministic, so the rerun only costs time.
* **Worker count** — ``REPRO_PARALLEL=<n>`` pins ``n`` workers (``0`` or
  ``1``: serial); unset uses one worker per CPU, at most one per config.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Callable, List, Sequence

from ..experiments._build import snapshot_memo
from ..experiments.config import ExperimentConfig, env_gates
from ..experiments.runner import run_steady_state

_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


def _workers(n_tasks: int) -> int:
    """Worker processes for a sweep of ``n_tasks`` configs (<= 1: serial)."""
    pinned = env_gates().parallel_workers
    if pinned is None:
        pinned = os.cpu_count() or 1
    return min(n_tasks, pinned)


def _memoised(runner: Callable, config: ExperimentConfig, **kwargs):
    with snapshot_memo():
        return runner(config, **kwargs)


def run_many(configs: Sequence[ExperimentConfig],
             runner: Callable = run_steady_state, **kwargs) -> List:
    """``[runner(c, **kwargs) for c in configs]``, fanned across processes.

    The pool pickles ``runner`` by name, so a stub or closure needs
    ``REPRO_PARALLEL=0``.
    """
    configs = list(configs)
    task = partial(_memoised, runner, **kwargs)
    workers = _workers(len(configs))
    if workers > 1:
        try:
            with ProcessPoolExecutor(workers, mp_context=_CONTEXT) as pool:
                return list(pool.map(task, configs))
        except BrokenProcessPool:
            pass  # a worker died hard: rerun the sweep in-process
    return [task(config) for config in configs]
