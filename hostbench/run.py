"""The repository benchmark: CPU time of three simulated workloads.

    python3 hostbench/run.py --workload steer_farm --seed 1 --seconds 20 \\
                             --trace 0

Runs one workload for about ``--seconds`` host seconds, as a series of
workers (:mod:`worker`), one fresh interpreter per simulation, all with
the same seed.  With ``--trace 0`` every worker is untraced and the
end-to-end metrics are medians over the workers.  With ``--trace 1``
untraced and traced workers alternate and the per-layer metrics come
from the traced ones (see :mod:`layers`).

Every run checks the program's output:

- every worker's virtual-time row and program counters are identical
  (same seed, fresh interpreters — traced workers included, which proves
  the tracing shims add no simulation events);
- for a default seed, the row equals the one stored in ``expected.json``;
- for any seed, the workload's invariants hold (no failed operation,
  every watcher sees updates, every session completes, ...).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run that fails a check
prints ``"correct": false`` with every operation counted as failed and no
metrics, and exits with status 1.  See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402  (stdlib only: the parent never imports repro)

WORKLOADS = ("steer_farm", "collab_poll", "directory_fleet")
#: seeds whose virtual-time rows are stored in expected.json
DEFAULT_SEEDS = (1, 2, 3)
MIN_WORKERS = 3
MIN_PAIRS = 2
WORKER_TIMEOUT_S = 150.0
END_TO_END = (("ref_cpu_s", "s"), ("ops_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class CheckFailed(Exception):
    """The program's output failed a correctness check."""


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload,
               str(seed)]
    if traced:
        command.append("--traced")
    # hash randomisation would reorder string-keyed sets between workers
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"worker exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, outs: list) -> None:
    first = outs[0]
    for out in outs[1:]:
        if out["row"] != first["row"]:
            raise CheckFailed(f"rows differ between runs of seed {seed}: "
                              f"{first['row']} != {out['row']}")
        if out["counts"] != first["counts"]:
            diff = {k: (v, out["counts"].get(k))
                    for k, v in first["counts"].items()
                    if out["counts"].get(k) != v}
            raise CheckFailed(f"program counters differ between runs of "
                              f"seed {seed}: {diff}")
    for out in outs:
        if out["violations"]:
            raise CheckFailed(f"invariants violated: {out['violations']}")
    if seed in DEFAULT_SEEDS:
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)[workload][str(seed)]
        if first["row"] != expected:
            diff = {k: (v, first["row"].get(k)) for k, v in expected.items()
                    if first["row"].get(k) != v}
            raise CheckFailed(f"row differs from expected.json "
                              f"(expected, got): {diff}")


def end_to_end(outs: list) -> dict:
    values = {
        "ref_cpu_s": [o["ref_cpu_s"] for o in outs],
        "ops_per_s": [o["ops"] / o["ref_cpu_s"] for o in outs],
        "setup_s": [o["setup_s"] for o in outs],
        "peak_rss_mb": [o["peak_rss_mb"] for o in outs],
    }
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(untraced: list, traced: list) -> dict:
    ref_untraced = statistics.median(o["ref_cpu_s"] for o in untraced)
    ref_traced = statistics.median(o["ref_cpu_s"] for o in traced)
    runs = [layers.layer_metrics(o["layers"], o["counts"], ref_untraced,
                                 ref_traced) for o in traced]
    metrics = {}
    for name, (value, unit) in runs[0].items():
        values = [run[name][0] for run in runs]
        if name.startswith("runtime."):
            # the collector runs on allocation counts, not program events
            value = statistics.median_low(values)
        elif isinstance(value, int):
            if len(set(values)) != 1:
                raise CheckFailed(f"{name} differs between traced runs: "
                                  f"{sorted(set(values))}")
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the DISCOVER simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # compile once up front, so the first worker's setup_s does not pay it
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src", "repro")], check=True,
                   stdout=subprocess.DEVNULL)

    untraced, traced = [], []
    start = time.monotonic()

    def more(done: int, minimum: int) -> bool:
        # start another worker (or pair) only if it is expected to end
        # nearer to the deadline than stopping now would
        elapsed = time.monotonic() - start
        return done < minimum or elapsed + elapsed / done / 2 < args.seconds

    try:
        if args.trace:
            while more(len(traced), MIN_PAIRS):
                untraced.append(run_worker(args.workload, args.seed, False))
                traced.append(run_worker(args.workload, args.seed, True))
        else:
            while more(len(untraced), MIN_WORKERS):
                untraced.append(run_worker(args.workload, args.seed, False))
        check(args.workload, args.seed, untraced + traced)
        metrics = (per_layer(untraced, traced) if args.trace
                   else end_to_end(untraced))
    except (CheckFailed, subprocess.TimeoutExpired) as error:
        print(f"FAILED: {error}", file=sys.stderr)
        attempted = max(1, sum(o["attempted"] for o in untraced + traced))
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1

    outs = traced if args.trace else untraced
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced workers")
    print(json.dumps({"correct": True,
                      "attempted": sum(o["attempted"] for o in outs),
                      "failed": sum(o["failed"] for o in outs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
