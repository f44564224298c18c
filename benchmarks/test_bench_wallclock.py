"""Wall-clock performance of the simulator itself (BENCH trajectory).

Unlike every other benchmark in this directory — which reproduces a *paper*
measurement in virtual time — this one measures the real seconds the
reproduction burns on the wire fast path, network delivery, broadcast
fan-out, and the end-to-end scenarios.  It writes ``BENCH_3.json`` at the
repository root so successive PRs leave a perf trajectory, and gates it
against the committed ``BENCH_1.json`` baseline: any shared benchmark more
than 25% slower fails the suite.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_wallclock.py --benchmark-only -s
"""

from __future__ import annotations

from pathlib import Path

import time

from benchmarks.conftest import run_once

from repro.bench.wallclock import format_report, run_suite, write_report

#: committed baseline (PR 1) and where this PR's trajectory point lands
BASELINE_JSON = Path(__file__).resolve().parents[1] / "BENCH_1.json"
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_3.json"

#: shared benchmarks may not be more than 25% slower than the baseline
REGRESSION_THRESHOLD = 1.25


def test_wallclock_suite(benchmark):
    report = run_once(benchmark, lambda: run_suite(quick=False))
    print()
    print(format_report(report))
    write_report(str(BENCH_JSON), report)
    print(f"wrote {BENCH_JSON}")
    names = {entry["name"] for entry in report["benchmarks"]}
    assert "wire/encoded_size_update_64x64" in names
    assert "collab/broadcast_poll_30_subscribers" in names
    assert "e2e/E1_health_on_n10" in names
    assert "e2e/E1_n1000" in names
    assert all(entry["per_op_us"] > 0 for entry in report["benchmarks"])


def test_no_regression_vs_baseline():
    """The freshly-written BENCH_3.json must hold the BENCH_1.json line.

    Uses the same gate CI runs (``tools/check_bench_regression.py``): every
    benchmark present in both reports must be within the 25% threshold.
    Entries only in one report (new arms like ``e2e/E1_n1000``) are exempt.
    """
    import sys

    sys.path.insert(0, str(BASELINE_JSON.parent / "tools"))
    try:
        from check_bench_regression import main as gate
    finally:
        sys.path.pop(0)
    if not BENCH_JSON.exists():  # bench suite not run in this session
        import pytest
        pytest.skip("BENCH_3.json not generated (run test_wallclock_suite)")
    rc = gate(["--baseline", str(BASELINE_JSON),
               "--candidate", str(BENCH_JSON),
               "--threshold", str(REGRESSION_THRESHOLD)])
    assert rc == 0, "wall-clock regression vs BENCH_1.json (see output)"


def test_health_plane_overhead_under_5_percent(benchmark):
    """The always-on health plane must stay effectively free.

    Same E1 workload with the plane on and off; the on/off ratio of the
    per-arm minima bounds the plane's overhead.  The runs must be long
    enough (~0.7s here) that scheduler noise is small relative to the
    measured quantum — with short runs the fixed jitter alone exceeds
    the 5% ceiling.  The health plane is pure bookkeeping on timer
    events, so 5% is a generous ceiling.
    """
    from repro.bench.scenarios import run_app_scalability

    def one(enabled: bool) -> float:
        t0 = time.perf_counter()
        run_app_scalability(20, duration=30.0, health_enabled=enabled)
        return time.perf_counter() - t0

    def measure():
        # warm both arms first (import costs, first-run allocations) so
        # neither measured minimum carries one-time work, then
        # interleave rounds so drift hits both arms equally.  Minima only
        # converge downward, so keep adding rounds until the ratio settles
        # comfortably under the bound; a genuinely slow health plane stays
        # above it no matter how many rounds run.
        one(True), one(False)
        ons, offs = [], []
        for i in range(12):
            offs.append(one(False))
            ons.append(one(True))
            if i >= 2 and min(ons) / min(offs) < 1.04:
                break
        return min(ons), min(offs)

    with_health, without = run_once(benchmark, measure)
    ratio = with_health / without
    print(f"\nhealth plane wall-clock: on={with_health:.3f}s "
          f"off={without:.3f}s ratio={ratio:.3f}")
    assert ratio < 1.05, (
        f"health plane adds {100 * (ratio - 1):.1f}% wall-clock overhead")


def test_accounting_overhead_under_5_percent(benchmark):
    """The cost-attribution ledger must stay effectively free (ISSUE 10).

    Same interleaved-minima protocol as the health-plane gate: identical
    E1 workload with ``accounting_enabled`` on and off.  The attribution
    path is an interceptor scope, a handful of integer bumps, and a
    bounded sketch add per request — 5% is a generous ceiling.
    """
    from repro.bench.scenarios import run_app_scalability

    def one(enabled: bool) -> float:
        t0 = time.perf_counter()
        run_app_scalability(20, duration=30.0, accounting_enabled=enabled)
        return time.perf_counter() - t0

    def measure():
        one(True), one(False)
        ons, offs = [], []
        for i in range(12):
            offs.append(one(False))
            ons.append(one(True))
            if i >= 2 and min(ons) / min(offs) < 1.04:
                break
        return min(ons), min(offs)

    with_ledger, without = run_once(benchmark, measure)
    ratio = with_ledger / without
    print(f"\ncost ledger wall-clock: on={with_ledger:.3f}s "
          f"off={without:.3f}s ratio={ratio:.3f}")
    assert ratio < 1.05, (
        f"cost ledger adds {100 * (ratio - 1):.1f}% wall-clock overhead")
