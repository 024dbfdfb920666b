"""Turns the driver's raw samples into the benchmark's metrics.

Pure functions only (no I/O), so test_perfbench.py can check them directly.
The raw record is the JSON object `perfbench_driver run` prints; each
request in it carries its document `doc`, query number `q`, latency `ns`,
`ok`, and, when traced, the per-layer span durations and engine counters.
"""

import math
import statistics

QUERIES = (1, 2, 3)

# End-to-end metrics: (name, unit). Order and units match BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("q1_p50_ms", "ms"),
    ("q2_p50_ms", "ms"),
    ("q3_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]

# Per-layer metrics: (name, unit, end-to-end metric it should move, on which
# workload). Every per-request figure is the mean over Q1-Q3 of each query's
# median over the traced requests. harness.self_ms is the request span minus
# its child spans: the benchmark's own work plus freeing the query's plan and
# result. trace.overhead_pct compares the traced requests with the untraced
# ones of the same run.
PER_LAYER = [
    ("xml.parse_s", "s", "setup_s, peak_rss_mb", "all (set-up only)"),
    ("index.build_ms", "ms", "setup_s, peak_rss_mb; request_p50_ms on cold_start",
     "all; cold_start"),
    ("xml.snapshot_load_ms", "ms", "request_p50_ms", "cold_start"),
    ("query.parse_us", "us", "nothing (sanity; expect no move)", "all"),
    ("score.tfidf_ms", "ms", "request_p50_ms, q3_p50_ms", "warm_topk"),
    ("exec.plan_ms", "ms", "under 3% everywhere; expect no move", "all"),
    ("exec.run_ms", "ms", "request_p50_ms, q3_p50_ms", "warm_topk"),
    ("exec.matches_created", "count", "request_p50_ms, q3_p50_ms", "warm_topk"),
    ("exec.useful_ratio", "ratio", "request_p50_ms, q3_p50_ms", "warm_topk"),
    ("exec.server_ops", "count", "request_p50_ms (ops, not code speed)", "remote_wm"),
    ("exec.matches_pruned", "count", "request_p50_ms (ops, not code speed)", "remote_wm"),
    ("exec.routing_decisions", "count", "request_p50_ms (ops, not code speed)",
     "remote_wm"),
    ("exec.overlap", "ratio", "request_p50_ms", "remote_wm"),
    ("exec.queue_wait_p50_us", "us", "request_p50_ms", "remote_wm"),
    ("exec.queue_peak_depth", "count", "request_p50_ms", "remote_wm"),
    ("exec.server_op_p50_us", "us", "request_p50_ms", "warm_topk"),
    ("harness.self_ms", "ms", "check on the benchmark itself", "all"),
    ("trace.overhead_pct", "%", "check on the benchmark itself", "all"),
]

LAYER_SPANS = {
    "snapshot": "xml::LoadSnapshot",
    "index": "index::TagIndex",
    "parse": "query::ParseXPath",
    "tfidf": "score::ComputeTfIdf",
    "plan": "exec::QueryPlan::Build",
    "run": "exec::RunTopK",
}


def nearest_rank(sorted_values, p):
    """The nearest-rank p-th percentile (0 < p <= 100) of a sorted list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values, min_beyond=10):
    """The highest whole percentile with at least `min_beyond` samples above
    its value. Returns (percentile, value, samples beyond)."""
    s = sorted(values)
    for p in range(99, 0, -1):
        v = nearest_rank(s, p)
        beyond = sum(1 for x in s if x > v)
        if beyond >= min_beyond:
            return p, v, beyond
    raise ValueError("a tail needs more than %d samples, got %d" % (min_beyond, len(s)))


def mean_over_docs(requests, fn):
    """Mean over the documents of fn(that document's requests). Requests on
    different documents cost different amounts, so a median pooled over
    documents would jump between their clusters."""
    docs = sorted({r["doc"] for r in requests})
    return sum(fn([r for r in requests if r["doc"] == d]) for d in docs) / len(docs)


def per_query_medians(requests, key):
    """{q: median of key(r) over the requests of query q} for queries seen."""
    out = {}
    for q in QUERIES:
        vals = [key(r) for r in requests if r["q"] == q]
        if vals:
            out[q] = statistics.median(vals)
    return out


def mean_of_query_medians(requests, key):
    m = per_query_medians(requests, key)
    if len(m) != len(QUERIES):
        raise ValueError("traced requests do not cover every query")
    return sum(m.values()) / len(m)


def tally(requests):
    """(attempted, failed) over the timed requests."""
    return len(requests), sum(1 for r in requests if not r["ok"])


def end_to_end(raw):
    """Every END_TO_END metric (name -> value) plus the tail's description."""
    requests = [r for r in raw["requests"] if not r["traced"]]
    latencies_ms = [r["ns"] / 1e6 for r in requests]
    attempted, failed = tally(requests)
    p, tail_ms, beyond = tail(latencies_ms)

    def p50_ms(q=None):
        return mean_over_docs(requests, lambda rs: statistics.median(
            r["ns"] / 1e6 for r in rs if q is None or r["q"] == q))

    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "request_p50_ms": p50_ms(),
        "request_tail_ms": tail_ms,
        "requests_per_s": attempted / raw["loop_s"],
        "q1_p50_ms": p50_ms(1),
        "q2_p50_ms": p50_ms(2),
        "q3_p50_ms": p50_ms(3),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    tail_info = {"percentile": p, "beyond": beyond, "samples": len(latencies_ms)}
    return metrics, tail_info


def per_layer(raw, op_cost_ms):
    """Every PER_LAYER metric (name -> value) from a traced run."""
    requests = raw["requests"]
    traced = [r for r in requests if r["traced"]]
    untraced = [r for r in requests if not r["traced"]]
    if not traced or not untraced:
        raise ValueError("a traced run needs traced and untraced requests")

    def layer(name):
        return lambda r: r["layers_ns"][LAYER_SPANS[name]]

    def spans(name):
        # Set-up spans plus every traced request that made the call.
        vals = list(raw["setup_layers_ns"].get(LAYER_SPANS[name], []))
        vals += [r["layers_ns"][LAYER_SPANS[name]] for r in traced
                 if r["layers_ns"][LAYER_SPANS[name]] > 0]
        return statistics.median(vals)

    def mean(key):
        return mean_of_query_medians(traced, key)

    created = mean(lambda r: r["matches_created"])
    completed = mean(lambda r: r["matches_completed"])
    ops = mean(lambda r: r["server_ops"])
    run_ms = mean(lambda r: layer("run")(r) / 1e6)
    overhead = (sum(per_query_medians(traced, lambda r: r["ns"]).values()) /
                sum(per_query_medians(untraced, lambda r: r["ns"]).values()) - 1.0)
    return {
        "xml.parse_s": statistics.median(raw["setup_layers_ns"]["xml::ParseFile"]) / 1e9,
        "index.build_ms": spans("index") / 1e6,
        "xml.snapshot_load_ms": spans("snapshot") / 1e6,
        "query.parse_us": mean(lambda r: layer("parse")(r) / 1e3),
        "score.tfidf_ms": mean(lambda r: layer("tfidf")(r) / 1e6),
        "exec.plan_ms": mean(lambda r: layer("plan")(r) / 1e6),
        "exec.run_ms": run_ms,
        "exec.matches_created": created,
        "exec.useful_ratio": completed / created,
        "exec.server_ops": ops,
        "exec.matches_pruned": mean(lambda r: r["matches_pruned"]),
        "exec.routing_decisions": mean(lambda r: r["routing_decisions"]),
        "exec.overlap": ops * op_cost_ms / run_ms,
        "exec.queue_wait_p50_us": mean(lambda r: r["queue_wait_p50_us"]),
        "exec.queue_peak_depth": mean(lambda r: r["queue_peak_depth"]),
        "exec.server_op_p50_us": mean(lambda r: r["server_op_p50_us"]),
        "harness.self_ms": mean(lambda r: (r["ns"] - sum(r["layers_ns"].values())) / 1e6),
        "trace.overhead_pct": 100.0 * overhead,
    }


def ops_repeat(raw):
    """True when every request made exactly the fingerprint's W-S op count
    for its query (meaningful for the deterministic W-S engine only)."""
    expected = raw["fingerprint"]["ws_server_ops"]
    return all(r["server_ops"] == expected[r["doc"]][r["q"] - 1] for r in raw["requests"])
