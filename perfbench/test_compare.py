"""Self-tests of the compare mode's quantile and pair-win logic.

    python3 perfbench/test_compare.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(compare.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_known_values(self):
        self.assertEqual(compare.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))

    def test_single_run(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))


class PairWins(unittest.TestCase):
    def test_ties_count_for_neither(self):
        parent, change = [1, 2, 3], [1, 1, 1]
        self.assertEqual(compare.pair_wins(parent, change, "lower"), (2, 3))
        self.assertEqual(compare.pair_wins(parent, change, "higher"), (0, 3))

    def test_pairs_stop_at_shorter_side(self):
        self.assertEqual(compare.pair_wins([5, 5, 5, 5], [4, 4], "lower"),
                         (2, 2))


class Verdict(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]

    def test_gain_needs_nine_of_ten_pairs(self):
        change = [9.0] * 9 + [10.5]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "gain")
        change = [9.0] * 8 + [10.5, 10.5]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "unchanged")

    def test_gain_needs_medians_apart_by_parent_spread(self):
        change = [p - 0.001 for p in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "unchanged")

    def test_regression_beyond_bound(self):
        change = [p * 1.2 for p in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "regression")
        self.assertEqual(compare.verdict(self.parent, change, "higher", 0.1),
                         "gain")

    def test_within_bound_is_unchanged(self):
        change = [p * 1.05 for p in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "unchanged")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [10.5] * 10
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1),
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
