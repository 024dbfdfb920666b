#!/usr/bin/env python3
"""Repository benchmark: Whirlpool top-k queries, end to end and per layer.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

One run builds perfbench_driver from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), generates the workload's XMark document from --seed, writes
it out as XML plus a snapshot of it, and has the driver run one closed-loop
client for S seconds. Each request is a complete query (ParseXPath ->
ComputeTfIdf -> QueryPlan::Build -> RunTopK; k=15, relaxed, max-tuple,
min_alive routing) cycling through the paper's Q1, Q2 and Q3, and every
answer is checked against the rewriting baseline's scores.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (with
the end-to-end metric each should move, and on which workload). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it give the host, the build, the workload fingerprint and
the tail's percentile and sample count. A copy of everything goes to
<build dir>/results/.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (documents, target bytes of each, engine, op cost in ms, cold,
# set-up repetitions). Document i of seed s is generated with seed
# s + i * DOC_SEED_STRIDE. remote_wm averages over many small documents
# because its latency follows each document's server-op count, which varies
# from document to document. BENCHMARK.json says why each workload is there.
WORKLOADS = {
    "warm_topk": (1, 16_000_000, "ws", 0.0, False, 5),
    "cold_start": (1, 16_000_000, "ws", 0.0, True, 5),
    "remote_wm": (12, 2_000_000, "wm", 1.8, False, 3),
}
DOC_SEED_STRIDE = 1_000_003

DRIVER_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    out = os.path.join(build_dir(), "perfbench-cmake")
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def driver(binary, *args):
    """Runs the driver and returns its stdout's last line, parsed."""
    proc = subprocess.run([binary, *map(str, args)], check=True, stdout=subprocess.PIPE,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    return json.loads(proc.stdout)


def run_workload(binary, name, seed, seconds, trace, perturb=False):
    """Generates the inputs, runs the driver, and returns its raw record."""
    docs, target_bytes, engine, op_cost_ms, cold, setup_reps = WORKLOADS[name]
    data = os.path.join(build_dir(), "data-%d" % os.getpid())
    os.makedirs(data, exist_ok=True)
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    try:
        for i in range(docs):
            driver(binary, "gen", "--seed", seed + i * DOC_SEED_STRIDE, "--bytes", target_bytes,
                   "--xml", os.path.join(data, "doc%d.xml" % i),
                   "--snapshot", os.path.join(data, "doc%d.snap" % i))
        spans = os.path.join(results, "%s-seed%d.trace.json" % (name, seed))
        return driver(binary, "run", "--data", data, "--docs", docs,
                      "--engine", engine, "--op-cost-ms", op_cost_ms,
                      "--cold", int(cold), "--seconds", seconds, "--trace", int(trace),
                      "--setup-reps", setup_reps, "--spans", spans,
                      "--perturb-reference", int(perturb))
    finally:
        shutil.rmtree(data, ignore_errors=True)


def report(name, seed, seconds, trace, raw):
    """Prints the context lines and the final JSON line; returns the result."""
    docs, target_bytes, engine, op_cost_ms, cold, setup_reps = WORKLOADS[name]
    host = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.system() + " " + platform.release(),
        "python": platform.python_version(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
    }
    config = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "engine": engine, "op_cost_ms": op_cost_ms, "cold": cold,
              "docs": docs, "target_bytes": target_bytes, "setup_reps": setup_reps, "k": 15}
    fingerprint = dict(raw["fingerprint"])
    if engine == "ws":
        fingerprint["ws_ops_repeat"] = stats.ops_repeat(raw)
    attempted, failed = stats.tally(raw["requests"])
    print("host " + json.dumps(host))
    print("config " + json.dumps(config))
    print("fingerprint " + json.dumps(fingerprint))
    for r in raw["requests"]:
        if not r["ok"]:
            print("FAILED Q%d: %s" % (r["q"], r.get("error", "")))
            break
    if raw["reference_error"]:
        print("REFERENCE " + raw["reference_error"])
    print("fail_ratio %r (%d of %d)" % (failed / attempted, failed, attempted))
    extra = {}
    if trace:
        values = stats.per_layer(raw, op_cost_ms)
        units = {n: u for n, u, _, _ in stats.PER_LAYER}
        print("%-24s %14s %-6s  %-52s %s" % ("per-layer metric", "value", "unit",
                                            "should move", "on"))
        for n, u, moves, on in stats.PER_LAYER:
            print("%-24s %14.6g %-6s  %-52s %s" % (n, values[n], u, moves, on))
    else:
        values, tail_info = stats.end_to_end(raw)
        units = dict(stats.END_TO_END)
        extra["tail"] = tail_info
        print("request_tail_ms is p%d: %d of %d samples beyond it" %
              (tail_info["percentile"], tail_info["beyond"], tail_info["samples"]))
        for n, u in stats.END_TO_END:
            print("%-16s %14.6g %s" % (n, values[n], u))
    result = {
        "correct": failed == 0 and not raw["reference_error"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    with open(os.path.join(build_dir(), "results",
                           "%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as f:
        json.dump({"host": host, "config": config, "fingerprint": fingerprint,
                   "result": result, **extra}, f, indent=1)
    print(json.dumps(result))
    return result


def self_test():
    """The driver's answer-check tests, the stats tests, and a short run with
    a deliberately wrong reference, which must fail every request."""
    binary = build()
    subprocess.run([binary, "selftest"], check=True, stdout=sys.stderr)
    subprocess.run([sys.executable, os.path.join(HERE, "test_perfbench.py")], check=True)
    WORKLOADS["tiny"] = (2, 200_000, "ws", 0.0, False, 1)
    for perturb in (False, True):
        raw = run_workload(binary, "tiny", 7, 1, trace=False, perturb=perturb)
        attempted, failed = stats.tally(raw["requests"])
        expected = attempted if perturb else 0
        if attempted == 0 or failed != expected:
            log("self-test: perturb=%s gave %d failed of %d" % (perturb, failed, attempted))
            return 1
        log("self-test: perturb=%s -> %d failed of %d, as expected" %
            (perturb, failed, attempted))
    log("self-test: all passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    start = time.monotonic()
    binary = build()
    raw = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, args.seed, args.seconds, args.trace, raw)
    log("total %.1f s" % (time.monotonic() - start))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
