"""Tests of perfbench/stats.py. Run: python3 -m unittest discover perfbench"""

import os
import random
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import Moments, median, quantile, quartiles  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        rng = random.Random(1)
        for n in range(2, 40):
            values = [rng.uniform(0.5, 2.0) for _ in range(n)]
            want = statistics.quantiles(values, n=4)
            got = quartiles(values)
            for w, g in zip(want, got):
                self.assertAlmostEqual(w, g, places=12)
            deciles = statistics.quantiles(values, n=10)
            self.assertAlmostEqual(deciles[8], quantile(values, 0.9), places=12)

    def test_median(self):
        self.assertEqual(median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(median([7.0]), 7.0)

    def test_single_value_is_every_quartile(self):
        self.assertEqual(quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_order_independent(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(quartiles(values), quartiles(sorted(values)))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            median([])


class MomentsTest(unittest.TestCase):
    def test_matches_statistics(self):
        rng = random.Random(2)
        values = [rng.gauss(10.0, 3.0) for _ in range(1000)]
        m = Moments()
        for v in values:
            m.add(v)
        self.assertEqual(m.count, 1000)
        self.assertAlmostEqual(m.mean(), statistics.fmean(values), places=9)
        self.assertAlmostEqual(m.stddev(), statistics.pstdev(values), places=6)

    def test_constant_has_no_spread(self):
        m = Moments()
        for _ in range(5):
            m.add(0.1)
        self.assertAlmostEqual(m.mean(), 0.1)
        self.assertEqual(m.stddev(), 0.0)

    def test_empty(self):
        m = Moments()
        self.assertEqual((m.mean(), m.stddev()), (0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
