"""Parallel sweep execution (see :mod:`repro.parallel.executor`).

One function::

    from repro.parallel import run_many

    results = run_many(configs)                       # run_steady_state
    series = run_many(configs, run_timeline, sample_interval_s=1.0)

``run_many(configs, runner, **kwargs)`` returns
``[runner(c, **kwargs) for c in configs]`` in input order, computed on a
process pool when the sweep gets more than one worker.
``REPRO_PARALLEL=<n>`` pins the worker count; ``0`` or ``1`` runs the
sweep serially in-process, with bit-identical results.
"""

from .executor import run_many

__all__ = ["run_many"]
