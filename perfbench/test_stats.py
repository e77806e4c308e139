"""Tests for the benchmark's own arithmetic (perfbench/stats.py).

    python3 perfbench/test_stats.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


class TailPercentile(unittest.TestCase):
    def test_capped_at_p99(self):
        values = list(range(1, 10001))
        self.assertEqual(stats.tail_percentile(values), (99.0, 9900))

    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))  # 1000 samples
        level, value = stats.tail_percentile(values)
        self.assertEqual(level, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_fewer_samples_lower_the_level(self):
        values = list(range(1, 101))  # 100 samples: p90 is the highest
        level, value = stats.tail_percentile(values)
        self.assertAlmostEqual(level, 90.0)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_never_fewer_than_ten_beyond(self):
        for n in range(11, 400):
            values = [float(i) for i in range(n)]
            level, value = stats.tail_percentile(values)
            self.assertLessEqual(level, 99.0)
            self.assertGreaterEqual(sum(v > value for v in values), 10, n)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile(list(range(10))))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(stats.tail_percentile(values),
                         stats.tail_percentile(sorted(values)))


class MiddleRate(unittest.TestCase):
    def test_stalled_rounds_are_left_out(self):
        # Three 1 s rounds and one 10 s stall, 10 operations each.
        rate = stats.middle_rate([10, 10, 10, 10], [1.0, 10.0, 1.0, 1.0])
        self.assertEqual(rate, 10.0)

    def test_few_rounds_use_them_all(self):
        self.assertEqual(stats.middle_rate([4, 6], [1.0, 1.5]), 4.0)

    def test_needs_one_count_per_round(self):
        with self.assertRaises(ValueError):
            stats.middle_rate([1], [1.0, 2.0])


class Median(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class Failures(unittest.TestCase):
    def test_failures_count_as_missed_latency(self):
        ok = [1.0] * 980
        samples = stats.latency_samples(ok, failed=20, timeout_ms=10000)
        self.assertEqual(len(samples), 1000)
        self.assertEqual(samples.count(10000.0), 20)
        # 20 refused or timed-out requests of 1000 reach the p99.
        level, value = stats.tail_percentile(samples)
        self.assertEqual((level, value), (99.0, 10000.0))
        self.assertEqual(stats.median(samples), 1.0)

    def test_fail_share_base(self):
        share, base = stats.fail_share(attempted=200, failed=3, wrong=1)
        self.assertEqual(share, 0.02)
        self.assertEqual(base, "3 failed + 1 wrong / 200 attempted")

    def test_fail_share_needs_attempts(self):
        with self.assertRaises(ValueError):
            stats.fail_share(0, 0, 0)


class SelfTime(unittest.TestCase):
    def span(self, sid, parent, name, start, end):
        return {"id": sid, "parent": parent, "name": name, "start": start,
                "end": end}

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            self.span(1, 0, "round", 0, 10000),
            # Two overlapping children on different threads cover 0..6000.
            self.span(2, 1, "work", 0, 5000),
            self.span(3, 1, "work", 1000, 6000),
        ]
        table = stats.span_table(spans, {"round": 2})
        self.assertAlmostEqual(table["round"]["self_ms"], 2.0)  # 4 ms / 2
        self.assertAlmostEqual(table["work"]["total_ms"], 5.0)  # 10 ms / 2
        self.assertAlmostEqual(table["work"]["calls"], 1.0)
        self.assertEqual(table["work"]["root"], "round")

    def test_covered_clips_to_the_parent(self):
        self.assertEqual(stats.covered([(-5, 5), (8, 20)], 0, 10), 7)


class Printing(unittest.TestCase):
    def test_metric_line_has_name_value_and_unit(self):
        line = stats.metric_line("p50_ms", 0.123456789, "ms", "n=10")
        self.assertIn("p50_ms", line)
        self.assertIn("0.123456789 ms", line)
        self.assertTrue(line.endswith("(n=10)"))

    def test_result_line_shape(self):
        line = stats.result_line(True, 10, 0, {"run_s": (1.25, "s")})
        obj = json.loads(line)
        self.assertEqual(set(obj), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(obj["metrics"]["run_s"], {"value": 1.25, "unit": "s"})

    def raw(self, workload):
        return {"workload": workload, "op_name": "op", "op_ms": [1.0] * 50,
                "failed_ops": 0, "round_s": [0.5, 0.6], "round_ops": [25, 25],
                "traced_round_s": [0.7],
                "setup_s": [0.1], "ops": 50, "peak_rss_mb": 3.5,
                "counts": {}, "notes": [], "divisors": {}}

    def test_end_to_end_computes_every_benchmark_metric(self):
        got = run.end_to_end(self.raw("census"))
        gated = {m["name"] for m in SPEC["end_to_end"]}
        self.assertEqual(set(got), gated | {"p50_ms", "tail_ms"})
        self.assertFalse(gated & set(run.UNGATED))
        raw = self.raw("serve")
        raw["op_ms"] = [1.0] * 1000
        self.assertIn("p99_ms", run.end_to_end(raw))
        self.assertEqual(got["ops_per_s"][0], 50 / 1.1)

    def test_per_layer_computes_every_benchmark_metric(self):
        for workload, root in run.ROUND_SPAN.items():
            spans = [{"id": 1, "parent": 0, "name": root, "start": 0,
                      "end": 1000}]
            got, _ = run.per_layer(self.raw(workload), spans)
            self.assertEqual(set(got), {m["name"] for m in SPEC["per_layer"]})

    def test_names_are_unique_and_have_units(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertTrue(m["unit"])


if __name__ == "__main__":
    unittest.main()
