"""Rewrite expected.json: the virtual-time rows of the default seeds.

    python3 hostbench/record_expected.py

Run it only when a change is meant to alter the simulated behaviour, and
say so in the change: the stored rows are the behaviour contract every
benchmark run on a default seed is checked against.
"""

import json
import os

import run


def main() -> None:
    expected = {}
    for workload in run.WORKLOADS:
        expected[workload] = {}
        for seed in run.DEFAULT_SEEDS:
            outs = [run.run_worker(workload, seed, False) for _ in range(2)]
            if outs[0]["row"] != outs[1]["row"]:
                raise SystemExit(f"{workload} seed {seed} is not "
                                 f"deterministic")
            if outs[0]["violations"]:
                raise SystemExit(f"{workload} seed {seed}: "
                                 f"{outs[0]['violations']}")
            expected[workload][str(seed)] = outs[0]["row"]
    with open(os.path.join(run.HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
