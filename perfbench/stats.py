"""Summary statistics of the benchmark: quantiles and running moments.

quantile() follows the "exclusive" method of Python's
statistics.quantiles (the default), so the quartiles the benchmark
prints are the ones a reader computes from the raw values with the
standard library.
"""

import math
from fractions import Fraction


def quantile(values, q):
    """The q-quantile (0 < q < 1) of values, exclusive method.

    The 1-based position h = q * (n + 1) on the sorted data, taken
    exactly; the pair of neighbours is clamped to the data, so, like
    the standard library, positions before the second or past the
    next-to-last value extrapolate from the end pair.
    """
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    n = len(data)
    if n == 1:
        return float(data[0])
    h = Fraction(q).limit_denominator(1000) * (n + 1)
    j = min(max(math.floor(h), 1), n - 1)
    frac = float(h - j)
    return data[j - 1] + (data[j] - data[j - 1]) * frac


def median(values):
    return quantile(values, 0.5)


def quartiles(values):
    """(first quartile, median, third quartile)."""
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


class Moments:
    """Mean and standard deviation from a count, a sum and a sum of
    squares, the three counters a hot loop can keep per stint."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, x):
        self.count += 1
        self.total += x
        self.total_sq += x * x

    def mean(self):
        return self.total / self.count if self.count else 0.0

    def stddev(self):
        """Population standard deviation."""
        if not self.count:
            return 0.0
        mean = self.mean()
        return math.sqrt(max(0.0, self.total_sq / self.count - mean * mean))
