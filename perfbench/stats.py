"""Arithmetic of the repository benchmark: percentiles, span self time, shares.

Kept apart from run.py so that test_stats.py can check it without a build.
"""

import math

# A tail percentile is reported only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q):
    """The q-th percentile (0-100) by linear interpolation between order
    statistics (the "linear" method of numpy and R type 7)."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_above(values, threshold):
    return sum(1 for v in values if v > threshold)


def tail_ok(values, q):
    """True when at least MIN_TAIL_SAMPLES samples lie above the q-th
    percentile, so that the percentile is backed by data."""
    return bool(values) and samples_above(values, percentile(values, q)) >= MIN_TAIL_SAMPLES


def share(part, whole):
    """part / whole, and 0.0 when there is no base."""
    return part / whole if whole else 0.0


def covered_length(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover.  Children may overlap one another (the
    union is subtracted once) or reach past the parent (clipped).

    `spans` is a list of (name, run, parent, start, end), where `parent` is
    the index of the parent span or -1.
    """
    children = {}
    for _, _, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for i, (_, _, _, start, end) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(i, [])]
        result.append((end - start) - covered_length([c for c in clipped if c[0] < c[1]]))
    return result


def self_time_by_name(spans):
    """{name: (calls, total self time)} over all spans."""
    out = {}
    for span, self_time in zip(spans, self_times(spans)):
        calls, total = out.get(span[0], (0, 0))
        out[span[0]] = (calls + 1, total + self_time)
    return out
