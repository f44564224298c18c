"""Summary statistics over latency samples."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: default reservoir capacity — enough for stable p90/p99 estimates
DEFAULT_RESERVOIR_CAPACITY = 1024


@dataclass(frozen=True)
class SummaryStats:
    """Reduction of a sample set, in the units of the samples."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def scaled(self, factor: float) -> "SummaryStats":
        """Same stats in different units (e.g. seconds → milliseconds)."""
        return SummaryStats(self.count, self.mean * factor,
                            self.std * factor, self.minimum * factor,
                            self.p50 * factor, self.p90 * factor,
                            self.p99 * factor, self.maximum * factor)

    def row(self, ndigits: int = 2) -> str:
        """One human-readable table row."""
        return (f"n={self.count:5d}  mean={self.mean:9.{ndigits}f}  "
                f"p50={self.p50:9.{ndigits}f}  p90={self.p90:9.{ndigits}f}  "
                f"p99={self.p99:9.{ndigits}f}  max={self.maximum:9.{ndigits}f}")


class Reservoir:
    """Bounded sample store: exact count/mean/min/max, sampled percentiles.

    Algorithm R reservoir sampling over a fixed capacity, so a collector
    fed by an arbitrarily long run keeps O(capacity) memory.  The exact
    aggregates (count, total → mean, minimum, maximum) are maintained over
    *every* observation; only the percentile estimates come from the
    sample.  Randomness is a private seeded :class:`random.Random` —
    it never touches the simulation's determinism, and two identical
    runs produce identical reservoirs.
    """

    __slots__ = ("capacity", "count", "total", "minimum", "maximum",
                 "_samples", "_rng")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY,
                 seed: int = 0x5EED) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._samples: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        """Observe one value."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._samples[slot] = value

    def merge(self, other: "Reservoir") -> "Reservoir":
        """Fold another reservoir in without losing the tails.

        The exact aggregates compose exactly: count and total add (so
        the merged mean is the weighted mean), min/max take the extrema.
        The retained sample set is a deterministic capacity-bounded
        combination — when both sets fit they concatenate; otherwise
        each side keeps a share of slots proportional to its *observed*
        count, so the merged percentile estimate weights each source by
        how much traffic it actually saw.
        """
        merged_count = self.count + other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        if len(self._samples) + len(other._samples) <= self.capacity:
            self._samples.extend(other._samples)
        elif merged_count > 0:
            k_other = min(len(other._samples),
                          round(self.capacity * (other.count / merged_count)))
            k_self = min(len(self._samples), self.capacity - k_other)
            k_other = min(len(other._samples), self.capacity - k_self)
            self._samples = (self._samples[:k_self]
                             + other._samples[:k_other])
        self.count = merged_count
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def samples(self) -> List[float]:
        """The retained (possibly subsampled) values."""
        return list(self._samples)

    def stats(self) -> SummaryStats:
        """Exact count/mean/min/max merged with sampled percentiles.

        Edge cases are pinned (tests/obs/test_accounting.py): **empty**
        → the all-zero :class:`SummaryStats` (count 0, minimum/maximum
        0.0 — never the internal ±inf sentinels); a **single**
        observation → every field is that value (std 0.0), exact and
        identical across all percentiles.
        """
        if self.count == 0:
            return summarize(())
        sampled = summarize(self._samples)
        return SummaryStats(count=self.count, mean=self.mean,
                            std=sampled.std, minimum=self.minimum,
                            p50=sampled.p50, p90=sampled.p90,
                            p99=sampled.p99, maximum=self.maximum)

    def percentile(self, q: float) -> float:
        """One sampled percentile, bit-identical to the matching
        :meth:`stats` field (``percentile(99) == stats().p99``); 0.0 when
        empty.  ``q`` outside [0, 100] raises :class:`ValueError`."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must be in the range [0, 100]")
        if self.count == 0:
            return 0.0
        return _sorted_percentile(sorted(self._samples), q)

    def __len__(self) -> int:
        return len(self._samples)


def _sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """numpy's default ("linear") percentile of ascending ``ordered``.

    The virtual index ``(n-1) * q/100`` falls between two neighbouring
    samples and the result interpolates them with numpy's two-sided
    lerp, in plain floats, so it matches ``np.percentile`` bit for bit.
    ``q`` must be in [0, 100] and ``ordered`` non-empty.
    """
    last = len(ordered) - 1
    index = last * (q / 100)  # q in [0, 100] keeps it in [0, last]
    lo = math.floor(index)
    a = ordered[lo]
    b = ordered[min(lo + 1, last)]
    gamma = index - lo
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Reduce ``samples`` to :class:`SummaryStats` (empty → all zeros).

    numpy gives the mean and std (its pairwise sums); the percentiles
    come from :func:`_sorted_percentile`, the same code as
    :meth:`Reservoir.percentile`.
    """
    if len(samples) == 0:
        return SummaryStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(samples, dtype=float)
    ordered = np.sort(arr).tolist()
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=ordered[0],
        p50=_sorted_percentile(ordered, 50),
        p90=_sorted_percentile(ordered, 90),
        p99=_sorted_percentile(ordered, 99),
        maximum=ordered[-1],
    )
