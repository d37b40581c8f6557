"""Unit tests for the percentile helpers in run.py.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        self.assertEqual(run.quantile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5)
        self.assertEqual(run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6)
        self.assertEqual(run.quantile([7.0], 0.99), 7.0)


class TailTest(unittest.TestCase):
    def test_paper_sweep_trials_report_the_median(self):
        # 32 trials: p75 leaves only 8 samples beyond it, p50 leaves 16.
        samples = [float(i) for i in range(32)]
        self.assertEqual(run.tail(samples), (50.0, 15.5, 16))

    def test_stream_of_400_jobs_reports_p95(self):
        # p99 leaves 4 samples beyond it; p95 leaves 20.
        samples = [float(i) for i in range(400)]
        pct, value, beyond = run.tail(samples)
        self.assertEqual((pct, beyond), (95.0, 20))
        self.assertAlmostEqual(value, 379.05)

    def test_exactly_ten_beyond_qualifies(self):
        pct, _, beyond = run.tail([float(i) for i in range(100)])
        self.assertEqual((pct, beyond), (90.0, 10))

    def test_fewer_than_eleven_samples_report_only_the_median(self):
        for n in (1, 5, 10):
            samples = [float(i) for i in range(n)]
            pct, value, beyond = run.tail(samples)
            self.assertEqual(pct, 50.0)
            self.assertEqual(value, run.quantile(samples, 0.5))
            self.assertLess(beyond, run.TAIL_MIN_BEYOND)


if __name__ == "__main__":
    unittest.main()
