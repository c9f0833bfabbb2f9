"""Statistics collection for simulator components.

Mirrors SST's statistics subsystem at the level this reproduction
needs: counters, streaming summaries (Welford), and histograms that
components update during the run and experiments read afterwards.
"""

from __future__ import annotations

import math


class Counter:
    """A monotonically updated named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Summary:
    """Streaming min/max/mean/variance via Welford's algorithm."""

    __slots__ = ("name", "n", "_mean", "_m2", "min", "max", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        d = x - self._mean
        self._mean += d / self.n
        self._m2 += d * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "Summary") -> "Summary":
        """Fold *other*'s samples into this summary (Chan's parallel
        variance combine), e.g. to pool summaries from separate runs."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return self
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / n
        self._mean = (self._mean * self.n + other._mean * other.n) / n
        self.n = n
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Summary({self.name} n={self.n} mean={self.mean:.2f} "
            f"min={self.min:.2f} max={self.max:.2f})"
        )


class Histogram:
    """Fixed-width histogram with overflow/underflow buckets."""

    def __init__(self, name: str, lo: float, hi: float, nbins: int = 32) -> None:
        if hi <= lo or nbins < 1:
            raise ValueError("histogram requires hi > lo and nbins >= 1")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.nbins = nbins
        self.width = (hi - lo) / nbins
        self.bins = [0] * nbins
        self.underflow = 0
        self.overflow = 0
        self.count = 0

    def add(self, x: float) -> None:
        self.count += 1
        if x < self.lo:
            self.underflow += 1
        elif x >= self.hi:
            self.overflow += 1
        else:
            self.bins[int((x - self.lo) / self.width)] += 1

    def bin_edges(self) -> list[float]:
        return [self.lo + i * self.width for i in range(self.nbins + 1)]

    def percentile(self, q: float) -> float:
        """Approximate *q*-quantile (``0 <= q <= 1``) of the samples.

        Linear interpolation within the fixed-width bins; the underflow
        mass is pinned at ``lo`` and the overflow mass at ``hi`` (the
        histogram does not retain where out-of-range samples fell).
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = self.underflow
        if target <= cum:
            return self.lo
        for i, n in enumerate(self.bins):
            if n and target <= cum + n:
                frac = (target - cum) / n
                return self.lo + (i + frac) * self.width
            cum += n
        return self.hi

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram.  Both must share the exact
        same binning — histograms with different shapes measure
        different things and summing their bins would be meaningless."""
        if (other.lo, other.hi, other.nbins) != (self.lo, self.hi, self.nbins):
            raise ValueError(
                f"cannot merge histogram {other.name} "
                f"[{other.lo}, {other.hi})x{other.nbins} into {self.name} "
                f"[{self.lo}, {self.hi})x{self.nbins}"
            )
        for i, n in enumerate(other.bins):
            self.bins[i] += n
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        return self


class StatsRegistry:
    """Flat namespace of statistics owned by a simulator instance."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._summaries: dict[str, Summary] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def summary(self, name: str) -> Summary:
        s = self._summaries.get(name)
        if s is None:
            s = self._summaries[name] = Summary(name)
        return s

    def histogram(self, name: str, lo: float = 0.0, hi: float = 1e6, nbins: int = 32) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, lo, hi, nbins)
        return h

    def counters(self, prefix: str = "") -> dict[str, int]:
        return {k: c.value for k, c in self._counters.items() if k.startswith(prefix)}

    def counter_items(self) -> list[tuple[str, Counter]]:
        return list(self._counters.items())

    def summary_items(self) -> list[tuple[str, Summary]]:
        return list(self._summaries.items())

    def histogram_items(self) -> list[tuple[str, Histogram]]:
        return list(self._histograms.items())

    def report(self, prefix: str = "") -> str:
        """Plain-text dump of all stats under *prefix* (for experiment logs)."""
        lines = []
        for k in sorted(self._counters):
            if k.startswith(prefix):
                lines.append(f"{k}: {self._counters[k].value}")
        for k in sorted(self._summaries):
            if k.startswith(prefix):
                s = self._summaries[k]
                lines.append(
                    f"{k}: n={s.n} mean={s.mean:.3f} min={s.min:.3f} max={s.max:.3f} sd={s.stddev:.3f}"
                )
        return "\n".join(lines)
