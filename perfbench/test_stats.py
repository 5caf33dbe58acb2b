"""Tests of the benchmark's own arithmetic: the tail rule, span self time
and failure accounting.

    python3 perfbench/test_stats.py
"""

import unittest

import run
import stats


class TailRule(unittest.TestCase):
    def test_exactly_ten_samples_lie_beyond_the_tail(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        value, pct, n = stats.tail(values[::-1])
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), stats.TAIL_BEYOND)
        self.assertAlmostEqual(pct, 90.0)

    def test_twenty_samples_give_the_median_rank(self):
        values = [float(i) for i in range(20)]
        self.assertEqual(stats.tail(values), (9.0, 50.0, 20))

    def test_fewer_than_twenty_samples_fall_back_to_the_maximum(self):
        # 11..19 samples: the ten-beyond order statistic would lie below
        # the median, which is no tail.
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(stats.tail([5.0] + [9.0] * 10), (9.0, 100.0, 11))
        self.assertEqual(stats.tail([float(i) for i in range(19)]),
                         (18.0, 100.0, 19))
        self.assertEqual(stats.tail([]), (0.0, 0.0, 0))


class SelfTime(unittest.TestCase):
    def test_sequential_children_are_subtracted(self):
        spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (4.0, 8.0, 0)]
        self.assertEqual(stats.self_times(spans), [4.0, 2.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0)]
        self.assertEqual(stats.self_times(spans)[0], 4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(2.0, 6.0, -1), (0.0, 3.0, 0), (5.0, 9.0, 0)]
        self.assertEqual(stats.self_times(spans)[0], 2.0)

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [(0.0, 10.0, -1), (2.0, 6.0, 0), (3.0, 4.0, 1)]
        self.assertEqual(stats.self_times(spans), [6.0, 3.0, 1.0])


def trial(fp="a", error="", within=True, digest="d"):
    return {"fingerprint": fp, "error": error, "within_budget": within,
            "records_digest": digest}


def raw_run(plain_reps, traced_reps=None, serial="a", parallel="a",
            control=([trial("s")],)):
    """The first of `plain_reps` is the warm-up repetition; `control` holds
    the trials of each selection-control pass."""
    raw = {"plain": {"warmup": {"trials": plain_reps[0]},
                     "reps": [{"trials": t} for t in plain_reps[1:]],
                     "control": [{"trials": t} for t in control]},
           "invariance": {"serial": serial, "parallel": parallel}}
    if traced_reps is not None:
        raw["traced"] = {"reps": [{"trials": t} for t in traced_reps],
                         "control": []}
    return raw


class FailureAccounting(unittest.TestCase):
    def tally(self, raw):
        t = stats.Tally()
        run.check_outputs(raw, t)
        return t

    def test_clean_run(self):
        t = self.tally(raw_run([[trial(), trial("b")]] * 3))
        # 6 trials, 1 control world, 1 invariance check.
        self.assertEqual((t.attempted, t.failed, t.failed_frac), (8, 0, 0.0))

    def test_each_failure_kind_counts_once(self):
        t = self.tally(raw_run(
            [[trial(), trial("b")],
             [trial("x"), trial("b", error="CheckError")],
             [trial(), trial("b", within=False)]],
            serial="a", parallel="z"))
        # 6 trials, 1 control world, 1 invariance check; a changed
        # fingerprint, a throw, an overdraw and the invariance mismatch fail.
        self.assertEqual((t.attempted, t.failed), (8, 4))
        self.assertAlmostEqual(t.failed_frac, 4 / 8)

    def test_control_passes_must_repeat_the_first(self):
        t = self.tally(raw_run(
            [[trial()]],
            control=([trial("s"), trial("u")], [trial("s"), trial("v")],
                     [trial("s"), trial("u", error="CheckError")])))
        # 1 trial, 6 control worlds, 1 invariance check.
        self.assertEqual((t.attempted, t.failed), (8, 2))

    def test_traced_records_must_match_the_plain_run(self):
        t = self.tally(raw_run([[trial(), trial("b")]],
                               traced_reps=[[trial(), trial("b", digest="e")]]))
        # 2 plain + 2 traced trials, 1 control world, 1 invariance, 2
        # fidelity checks.
        self.assertEqual((t.attempted, t.failed), (8, 1))

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(stats.Tally().failed_frac, 1.0)


if __name__ == "__main__":
    unittest.main()
