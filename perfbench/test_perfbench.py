#!/usr/bin/env python3
"""Tests of the benchmark's own statistics: percentiles, tail selection,
failure counting and agreement with BENCHMARK.json.

Run: python3 perfbench/test_perfbench.py (also part of run.py --self-test).
"""

import json
import os
import unittest

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def request(q, ms, ok=True, traced=False, doc=0):
    return {"doc": doc, "q": q, "ns": int(ms * 1e6), "ok": ok, "traced": traced,
            "server_ops": 1}


def raw_run(requests):
    return {"setup_s": [0.3, 0.1, 0.2], "loop_s": 2.0, "peak_rss_kb": 2048,
            "requests": requests}


class NearestRankTest(unittest.TestCase):
    def test_small_list(self):
        s = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(stats.nearest_rank(s, 50), 5)
        self.assertEqual(stats.nearest_rank(s, 90), 9)
        self.assertEqual(stats.nearest_rank(s, 91), 10)
        self.assertEqual(stats.nearest_rank(s, 1), 1)


class TailTest(unittest.TestCase):
    def test_hundred_samples_gives_p90(self):
        p, value, beyond = stats.tail(list(range(1, 101)))
        self.assertEqual((p, value, beyond), (90, 90, 10))

    def test_always_ten_beyond(self):
        for n in (11, 12, 29, 57, 100, 240, 1000, 5003):
            values = [(i * 7919) % n for i in range(n)]  # a shuffle of 0..n-1
            p, value, beyond = stats.tail(values)
            self.assertGreaterEqual(beyond, 10, n)
            self.assertEqual(beyond, sum(1 for v in values if v > value))
            # One percentile higher would leave fewer than ten beyond.
            if p < 99:
                higher = stats.nearest_rank(sorted(values), p + 1)
                self.assertLess(sum(1 for v in values if v > higher), 10, n)

    def test_ties_do_not_count_as_beyond(self):
        self.assertEqual(stats.tail([1.0] * 50 + [2.0] * 12), (80, 1.0, 12))
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 50 + [2.0] * 9)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))


class FailureCountTest(unittest.TestCase):
    def reqs(self, bad=0):
        out = []
        for i in range(30):
            out.append(request(1 + i % 3, 10 + i, ok=i >= bad))
        return out

    def test_failed_request_is_counted(self):
        self.assertEqual(stats.tally(self.reqs(bad=2)), (30, 2))
        metrics, _ = stats.end_to_end(raw_run(self.reqs(bad=2)))
        self.assertAlmostEqual(metrics["ok_ratio"], 28 / 30)

    def test_clean_run(self):
        metrics, tail = stats.end_to_end(raw_run(self.reqs()))
        self.assertEqual(metrics["ok_ratio"], 1.0)
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertEqual(metrics["requests_per_s"], 15.0)
        self.assertEqual(metrics["peak_rss_mb"], 2.0)
        self.assertEqual(metrics["q1_p50_ms"], 23.5)
        self.assertEqual(tail["samples"], 30)
        self.assertGreaterEqual(tail["beyond"], 10)

    def test_medians_are_taken_per_document(self):
        reqs = [request(1, ms, doc=0) for ms in (10, 11, 12)]
        reqs += [request(1, ms, doc=1) for ms in (30, 31, 32, 33, 34)]
        reqs += [request(2, 50, doc=d) for d in (0, 1) for _ in range(6)]
        reqs += [request(3, 70 + d, doc=d) for d in (0, 1) for _ in range(2)]
        metrics, _ = stats.end_to_end(raw_run(reqs))
        self.assertEqual(metrics["q1_p50_ms"], (11 + 32) / 2)
        self.assertEqual(metrics["q2_p50_ms"], 50)
        self.assertEqual(metrics["q3_p50_ms"], 70.5)
        # Both documents' medians fall among their Q2 requests.
        self.assertEqual(metrics["request_p50_ms"], 50)

    def test_traced_requests_are_not_timed(self):
        reqs = self.reqs() + [request(1, 1e6, traced=True)]
        metrics, tail = stats.end_to_end(raw_run(reqs))
        self.assertEqual(tail["samples"], 30)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_agree(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         stats.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, u, _, _ in stats.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
