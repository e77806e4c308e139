"""The benchmark's arithmetic: medians, the tail-percentile rule, the
failure share, span self times and metric printing.

Kept apart from run.py so test_stats.py can pin every rule without a
build: python3 perfbench/test_stats.py
"""

import json
import math

# A timing's tail is the highest percentile, at most TAIL_CAP, that
# still has TAIL_BEYOND samples above it: p99 once a run has 1000.
TAIL_CAP = 99.0
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle two if even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def tail_percentile(values, cap=TAIL_CAP, beyond=TAIL_BEYOND):
    """(level, value) of the highest nearest-rank percentile <= cap that
    has at least `beyond` samples strictly above its rank, or None when
    there are too few samples for any.

    Nearest rank: percentile p of n sorted samples is the sample at rank
    ceil(p * n / 100). Rank r leaves n - r samples beyond it, so the
    rule allows p <= 100 * (n - beyond) / n.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    level = min(cap, 100.0 * (n - beyond) / n)
    rank = max(1, math.ceil(level * n / 100.0 - 1e-9))
    return level, xs[rank - 1]


def middle_rate(round_ops, round_s):
    """Operations per second over the middle half of rounds by duration
    (ranks n/4 to 3n/4): a throughput that stalls in a few rounds do not
    swing. All rounds when there are fewer than four."""
    if len(round_ops) != len(round_s) or not round_s:
        raise ValueError("middle_rate needs one op count per round")
    rounds = sorted(zip(round_s, round_ops))
    n = len(rounds)
    mid = rounds[n // 4:n - n // 4] if n >= 4 else rounds
    return sum(ops for _, ops in mid) / sum(s for s, _ in mid)


def latency_samples(ok_ms, failed, timeout_ms):
    """Latency samples with every failed operation (an error reply, a
    refused connection, a timeout) counted at the client timeout: a
    failure misses any latency limit, so it must weigh on the tail."""
    return list(ok_ms) + [float(timeout_ms)] * failed


def fail_share(attempted, failed, wrong):
    """(share, base text): failed and wrong operations over attempted."""
    if attempted < 1:
        raise ValueError("fail_share needs at least one attempted operation")
    bad = failed + wrong
    return bad / attempted, "%d failed + %d wrong / %d attempted" % (
        failed, wrong, attempted)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def span_table(spans, divisors):
    """Per span name: total and self time (ms) per round, and calls per
    round, each divided by the round count of the span's root.

    `spans` are dicts with id, parent, name, start and end (us). Self
    time is a span's duration minus the part of it its children cover
    (children may overlap: spans of concurrent work on other threads).
    Returns {name: {"total_ms", "self_ms", "calls", "root"}}.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))

    def root_of(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s["name"]

    table = {}
    for s in spans:
        root = root_of(s)
        per = divisors.get(root, 1.0) or 1.0
        dur = s["end"] - s["start"]
        own = dur - covered(children.get(s["id"], []), s["start"], s["end"])
        row = table.setdefault(s["name"], {"total_ms": 0.0, "self_ms": 0.0,
                                           "calls": 0.0, "root": root})
        row["total_ms"] += dur / 1000.0 / per
        row["self_ms"] += own / 1000.0 / per
        row["calls"] += 1.0 / per
    return table


def metric_line(name, value, unit, note=""):
    """One printed metric: name, value with all its digits, unit, and an
    optional note."""
    line = "  %-28s %r %s" % (name, float(value), unit)
    return line + ("  (" + note + ")" if note else "")


def result_line(correct, attempted, failed, metrics):
    """The benchmark's final JSON line. `metrics` maps name to
    (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
