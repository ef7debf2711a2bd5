"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cache_bound --seed 42 \\
        --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a profiled, span-traced run (see ``perfbench/README.md``).
The last line of standard output is the result object; progress and
failures go to standard error.  The simulator is imported from ``src/``
of the checkout with every ``REPRO_*`` variable removed, so the default
pure-Python program is what gets measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def prepare() -> bool:
    """Put ``src/`` and this directory on the import path and drop every
    ``REPRO_*`` variable; False when the checkout has no simulator."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return False
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [SRC, HERE]

    import warnings

    # scaling_config and shift_config still build the deprecated
    # string-workload form; the warning is the library's, not a failure
    warnings.simplefilter("ignore", DeprecationWarning)
    return True


def main(argv=None) -> int:
    if not prepare():
        return 2
    import harness
    from layers import PER_LAYER
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    expected = harness.load_fingerprints().get(workload.name, {}).get(
        str(args.seed))
    if args.trace:
        outcome = harness.measure_traced(workload, args.seed,
                                         expected=expected)
    else:
        outcome = harness.measure(workload, args.seed, args.seconds,
                                  expected=expected)
    table = PER_LAYER if args.trace else harness.END_TO_END
    print("# " + json.dumps(outcome.report, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
