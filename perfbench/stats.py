"""Arithmetic the benchmark reports with: medians, the tail rule, span self
time and failure accounting. Pure functions; test_stats.py covers them."""

import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it, so that it rests on more than a single outlier.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n). The value is the order statistic with
    exactly TAIL_BEYOND samples above it; the percentile is the share of
    samples at or below it. Below 2 * TAIL_BEYOND samples that order
    statistic lies under the median, so no tail percentile exists, and the
    maximum is returned as p100.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND  # samples at or below the reported one
    return ordered[k - 1], 100.0 * k / n, n


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover.

    `spans` is a list of (start, end, parent) with parent an index into the
    same list or -1. Children may overlap each other (work fanned out from
    one call); they are merged before subtracting, and clipped to the
    parent's interval.
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (start, end, _) in enumerate(spans):
        covered = [(max(start, spans[c][0]), min(end, spans[c][1]))
                   for c in children[i]]
        covered = [(lo, hi) for lo, hi in covered if hi > lo]
        result.append((end - start) - _union_length(covered))
    return result


class Tally:
    """Operations attempted and failed over one run. A failed operation is a
    trial or epoch that threw, overdrew the ledger or failed an output
    check; every check counts as an operation of its own."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0
