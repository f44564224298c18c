"""Reservoir: bounded memory with exact aggregates (the fix for the
unbounded collector growth in PipelineMetrics / FederationMetrics)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (FederationMetrics, PipelineMetrics, Reservoir,
                           summarize)


def test_exact_aggregates_survive_subsampling():
    res = Reservoir(capacity=64)
    n = 10_000
    for i in range(n):
        res.add(float(i))
    assert res.count == n
    assert len(res) == 64  # memory bounded at capacity
    assert res.mean == sum(range(n)) / n
    assert res.minimum == 0.0
    assert res.maximum == float(n - 1)
    stats = res.stats()
    assert stats.count == n
    assert stats.mean == res.mean
    assert stats.minimum == 0.0 and stats.maximum == float(n - 1)
    # sampled percentiles are estimates, but land in the right region
    assert 0.0 < stats.p50 < n
    assert stats.p50 <= stats.p90 <= stats.p99 <= stats.maximum


def test_reservoir_is_deterministic():
    def fill():
        res = Reservoir(capacity=16)
        for i in range(1000):
            res.add(float(i % 37))
        return res.samples()

    assert fill() == fill()


def test_empty_and_small_reservoirs():
    res = Reservoir()
    assert res.stats().count == 0
    assert res.mean == 0.0
    res.add(2.5)
    stats = res.stats()
    assert stats.count == 1
    assert stats.mean == stats.minimum == stats.maximum == 2.5


def test_merge_composes_aggregates_exactly():
    a, b = Reservoir(capacity=64), Reservoir(capacity=64)
    for i in range(1000):
        a.add(float(i))
    for i in range(500):
        b.add(float(i) + 2000.0)
    a.merge(b)
    assert a.count == 1500
    assert a.mean == (sum(range(1000)) + sum(i + 2000.0
                                             for i in range(500))) / 1500
    assert a.minimum == 0.0
    assert a.maximum == 2499.0
    assert len(a) <= 64  # memory still bounded after the merge


def test_merge_small_reservoirs_concatenates():
    a, b = Reservoir(capacity=64), Reservoir(capacity=64)
    for v in (1.0, 2.0):
        a.add(v)
    b.add(10.0)
    a.merge(b)
    assert sorted(a.samples()) == [1.0, 2.0, 10.0]
    assert a.count == 3


def test_merge_with_empty_is_identity():
    a = Reservoir(capacity=8)
    for i in range(100):
        a.add(float(i))
    before = (a.count, a.total, a.minimum, a.maximum, a.samples())
    a.merge(Reservoir(capacity=8))
    assert (a.count, a.total, a.minimum, a.maximum, a.samples()) == before
    b = Reservoir(capacity=8)
    b.merge(a)
    assert (b.count, b.total, b.minimum, b.maximum) == before[:4]


def test_merge_sample_share_is_traffic_weighted():
    # one side saw 9x the traffic: it keeps ~90% of the merged slots
    a, b = Reservoir(capacity=100), Reservoir(capacity=100)
    for i in range(9000):
        a.add(0.0)
    for i in range(1000):
        b.add(1.0)
    a.merge(b)
    kept_b = sum(1 for v in a.samples() if v == 1.0)
    assert len(a) == 100
    assert kept_b == 10


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=0, max_size=300),
       st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=0, max_size=300))
@settings(max_examples=50, deadline=None)
def test_merge_aggregates_match_single_stream(xs, ys):
    merged = Reservoir(capacity=32)
    for v in xs:
        merged.add(v)
    other = Reservoir(capacity=32)
    for v in ys:
        other.add(v)
    merged.merge(other)
    single = Reservoir(capacity=32)
    for v in xs + ys:
        single.add(v)
    assert merged.count == single.count
    assert merged.total == sum(xs) + sum(ys)
    if xs or ys:
        assert merged.minimum == min(xs + ys)
        assert merged.maximum == max(xs + ys)
    assert len(merged) <= 32


def test_pipeline_metrics_latencies_are_bounded():
    metrics = PipelineMetrics()
    for i in range(5000):
        metrics.observe("http", latency=float(i) * 1e-3)
    assert metrics.requests("http") == 5000
    stats = metrics.latency_stats("http")
    assert stats.count == 5000  # exact despite sampling
    assert len(metrics._latencies["http"]) <= 1024
    assert metrics.latency_stats("missing").count == 0


def test_federation_metrics_staleness_is_bounded():
    metrics = FederationMetrics()
    for i in range(5000):
        metrics.observe_staleness("app-1", float(i) * 1e-3)
    stats = metrics.staleness_stats("app-1")
    assert stats.count == 5000
    assert len(metrics._staleness["app-1"]) <= 1024
    assert metrics.staleness_stats("other").count == 0


def _p99_sample_fn(metrics):
    """The ``deliver_command_p99`` sample function ``default_slos``
    registers for a server whose pipeline metrics are ``metrics``."""
    from types import SimpleNamespace

    from repro.health.monitor import default_slos

    registered = {}

    class Engine:
        def add(self, spec, sample_fn):
            registered[spec.name] = sample_fn

    default_slos(SimpleNamespace(pipeline_metrics=metrics), Engine())
    return registered["deliver_command_p99"]


@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                min_size=0, max_size=200),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_p99_shortcut_is_bit_identical_to_stats(values, capacity):
    """The SLO's one-percentile read equals the full summary's p99
    bit-for-bit, including sample sets larger than the reservoir."""
    res = Reservoir(capacity=capacity)
    for v in values:
        res.add(v)
    assert res.percentile(99) == res.stats().p99
    metrics = PipelineMetrics()
    metrics._latencies["http"] = res
    assert metrics.latency_p99("http") == metrics.latency_stats("http").p99
    assert _p99_sample_fn(metrics)() == (res.stats().p99 or None)


def test_p99_shortcut_edge_cases():
    single = Reservoir()
    single.add(0.25)
    assert single.percentile(99) == single.stats().p99 == 0.25
    assert Reservoir().percentile(99) == Reservoir().stats().p99 == 0.0
    metrics = PipelineMetrics()
    sample = _p99_sample_fn(metrics)
    assert sample() is None  # no http plane yet
    metrics._latencies["http"] = Reservoir()
    assert sample() is None  # an empty reservoir still reads None
    metrics.observe("http", latency=0.75)
    assert sample() == 0.75


#: the percentiles the health tick and the summaries read, plus the ends
PERCENTILES = (0, 1, 50, 90, 99, 99.9, 100)


def _np_percentile(samples, q):
    return float(np.percentile(np.asarray(samples, dtype=float), q))


@st.composite
def sample_sets(draw):
    """1..2048 latency-like samples: a drawn pool of values (zeros and
    sub-millisecond ones included) reused for duplicates, mixed with
    fresh exponential draws at a drawn scale."""
    n = draw(st.integers(min_value=1, max_value=2048))
    pool = draw(st.lists(
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=1e-3),
                  st.floats(min_value=0.0, max_value=1e3)),
        min_size=1, max_size=16))
    dup_share = draw(st.sampled_from((0.0, 0.5, 0.95, 1.0)))
    scale = draw(st.sampled_from((1e-5, 1e-3, 1.0)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return [rng.choice(pool) if rng.random() < dup_share
            else rng.expovariate(1.0 / scale) for _ in range(n)]


@given(sample_sets())
@settings(max_examples=200, deadline=None)
def test_percentile_is_bit_identical_to_numpy(samples):
    """The plain-float percentile reproduces ``np.percentile``'s linear
    interpolation bit for bit — in the reservoir and in summarize()."""
    res = Reservoir(capacity=2048)
    for v in samples:
        res.add(v)
    for q in PERCENTILES:
        assert (res.percentile(q).hex()
                == _np_percentile(samples, q).hex()), q
    summary = summarize(samples)
    for q, field in ((50, summary.p50), (90, summary.p90),
                     (99, summary.p99)):
        assert field.hex() == _np_percentile(samples, q).hex(), q
    assert (summary.minimum, summary.maximum) == (min(samples),
                                                  max(samples))


@pytest.mark.parametrize("q", [-1, 101, -0.001, 100.001, float("nan")])
def test_percentile_rejects_q_out_of_range(q):
    res = Reservoir()
    res.add(1.0)
    with pytest.raises(ValueError):
        res.percentile(q)
    with pytest.raises(ValueError):
        np.percentile(np.asarray([1.0]), q)

