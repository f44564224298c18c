"""One benchmark simulation in a fresh interpreter.

    python3 hostbench/worker.py WORKLOAD SEED [--traced]

Runs the workload's set-up and timed phase once and prints one JSON
object: the process's CPU times in reference seconds (see :mod:`clock`;
``setup_s`` from process start to the end of set-up, so interpreter
start-up and imports are included; ``ref_cpu_s`` of the timed phase), the
virtual-time row, the program's own counters, operation totals,
invariant violations, and — with ``--traced`` — the per-layer metrics of
:mod:`layers`, with the spans written to
``.bench_out/spans-<workload>.jsonl``.

CPU time rather than elapsed time: the simulation is single-threaded and
never waits, so the two differ only by time the host gives to others.

The module-global id counters of the program make a second simulation
in one interpreter differ from the first, so the benchmark starts one
worker per simulation.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import clock  # noqa: E402

CLOCK = clock.ScaledClock()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    setup, run, result = workloads.WORKLOADS[args.workload]

    meter = None
    if args.traced:
        meter = layers.Meter()
        missing = layers.install(meter)
        if missing:
            sys.exit(f"entry points not found, so not traced: {missing}")
        meter.watch_gc()

    state = setup(args.seed, CLOCK)
    setup_s = CLOCK.mark()
    run(state, CLOCK)
    ref_cpu_s = CLOCK.mark() - setup_s
    out = result(state)
    if meter is not None:
        meter.unwatch_gc()
        out["layers"] = layers.snapshot(meter)
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        meter.write_spans(os.path.join(spans_dir,
                                       f"spans-{args.workload}.jsonl"))
    out["setup_s"] = setup_s
    out["ref_cpu_s"] = ref_cpu_s
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
