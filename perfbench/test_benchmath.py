"""Self-tests for the benchmark's arithmetic (benchmath.py).

    python3 -m unittest -q test_benchmath     (from perfbench/)
    python3 perfbench/run.py --selftest       (also runs the generator's
                                               alloc-interposer test)"""

import unittest

import benchmath


class PercentileRule(unittest.TestCase):
    def test_interpolates(self):
        self.assertEqual(benchmath.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(benchmath.percentile([5], 99), 5.0)
        self.assertEqual(benchmath.percentile(list(range(101)), 99), 99.0)

    def test_p99_needs_ten_beyond(self):
        # 1000 samples: exactly 10 lie beyond p99, so p99 is reported.
        p, val, k = benchmath.tail(list(range(1000)), 99.0)
        self.assertEqual((p, k), (99.0, 10))
        self.assertAlmostEqual(val, 989.01)

    def test_falls_back_to_highest_supported(self):
        # 999 samples: 9 beyond p99, 49 beyond p95 -> p95.
        p, _, k = benchmath.tail(list(range(999)), 99.0)
        self.assertEqual((p, k), (95.0, 49))
        # 150 samples: 7 beyond p95, 15 beyond p90 -> p90.
        p, _, k = benchmath.tail(list(range(150)), 99.0)
        self.assertEqual((p, k), (90.0, 15))
        # 25 samples: only the median has ten beyond it.
        p, _, k = benchmath.tail(list(range(25)), 99.0)
        self.assertEqual((p, k), (50.0, 12))

    def test_too_few_for_anything(self):
        self.assertEqual(benchmath.tail(list(range(15)), 99.0), (None, None, 0))

    def test_never_above_the_wanted_percentile(self):
        p, _, _ = benchmath.tail(list(range(100000)), 99.0)
        self.assertEqual(p, 99.0)


class Recovery(unittest.TestCase):
    # Fault at 40 s, heal at 50 s; pre-fault median is 100 per second.
    def series(self, after_heal):
        return [50] * 5 + [100] * 35 + [50] * 10 + after_heal

    def test_recovers_in_the_third_second(self):
        r, ok = benchmath.recovery_s(self.series([60, 90, 100, 100]),
                                     5, 40, 50)
        self.assertTrue(ok)
        self.assertEqual(r, 3)

    def test_immediate_recovery_counts_one_bucket(self):
        r, ok = benchmath.recovery_s(self.series([120, 100]), 5, 40, 50)
        self.assertEqual((r, ok), (1, True))

    def test_fractional_heal(self):
        r, ok = benchmath.recovery_s(self.series([60, 100]), 5, 40, 49.5)
        # Buckets 49 (still faulted) and 50 are below target; bucket 51,
        # ending at 52 s, reaches it.
        self.assertEqual((r, ok), (2.5, True))

    def test_never_recovers(self):
        r, ok = benchmath.recovery_s(self.series([60, 70]), 5, 40, 50)
        self.assertEqual((r, ok), (2, False))

    def test_warmup_is_excluded_from_the_target(self):
        rate = [0] * 5 + [10] * 35 + [1] * 10 + [10]
        self.assertEqual(benchmath.recovery_s(rate, 5, 40, 50), (1, True))


class Ratios(unittest.TestCase):
    def test_prints_its_base(self):
        r = benchmath.Ratio(3, 1200, "failed", "attempted sections")
        self.assertAlmostEqual(r.value, 0.0025)
        self.assertEqual(str(r), "0.0025 (= 3 failed / 1200 attempted sections)")

    def test_zero_base(self):
        r = benchmath.Ratio(0, 0, "a", "b")
        self.assertEqual(r.value, 0.0)
        self.assertIn("/ 0 b", str(r))

    def test_fractional_parts(self):
        self.assertIn("(= 2.5 x / 4 y)", str(benchmath.Ratio(2.5, 4, "x", "y")))


class Spread(unittest.TestCase):
    def test_matches_the_acceptance_rule(self):
        # quantiles([1..10], n=4) = 2.75, 5.5, 8.25 -> (8.25-2.75)/5.5 = 1.
        self.assertAlmostEqual(benchmath.spread(list(range(1, 11))), 1.0)


class Quietest(unittest.TestCase):
    def phases(self, steals):
        return [{"i": i, "steal_ticks": s} for i, s in enumerate(steals)]

    def test_least_stolen_quarter_in_run_order(self):
        got = benchmath.quietest(self.phases([9, 0, 5, 3, 7, 0, 8, 2]), 0.25)
        self.assertEqual([p["i"] for p in got], [1, 5])

    def test_ties_keep_the_earlier_phase(self):
        got = benchmath.quietest(self.phases([4, 4, 4, 4, 4, 4, 4, 4]), 0.5)
        self.assertEqual([p["i"] for p in got], [0, 1, 2, 3])

    def test_at_least_one(self):
        got = benchmath.quietest(self.phases([3, 1, 2]), 0.25)
        self.assertEqual([p["i"] for p in got], [1])


if __name__ == "__main__":
    unittest.main()
