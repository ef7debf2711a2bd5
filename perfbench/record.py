"""Record the simulated-statistics fingerprints runs are checked against.

    python3 perfbench/record.py                      # default seed
    python3 perfbench/record.py --seeds 42 1 2 3 --workload cache_bound

Re-record only for a change that is meant to alter simulated results.  A
change that only makes the simulator faster must reproduce the recorded
values exactly, so it never needs this script.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import prepare


def main(argv=None) -> int:
    if not prepare():
        return 2
    import harness
    from workloads import WORKLOADS, sub_seeds

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[harness.DEFAULT_SEED])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    recorded = harness.load_fingerprints()
    for name in args.workload:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            recorded.setdefault(name, {})[str(seed)] = [
                harness.fingerprint(
                    harness.execute(workload.config(sub, 1.0)))
                for sub in sub_seeds(seed, workload.sims)]
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    with open(harness.FINGERPRINTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
