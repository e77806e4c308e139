#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload locality|census|serve --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library sources,
wm_serve and the driver) into $CARGO_TARGET_DIR or .bench_build, runs
the workload's driver in a fresh scratch directory there with the WM_*
environment cleared, prints every metric by name and unit with its
sample count and the correctness verdicts, and ends with one JSON line:
the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
per-layer metrics and a layer-attribution table. Exits 1 without that
line when the build or the driver fails, and 1 after it when a check
fails.

Workloads (BENCHMARK.json gives each one's reason):
  locality  analyse_solvability, 3 problems x 7 classes, exhaustive scope
  census    store::run_census of the n=6 graph census, fresh store per round
  serve     a live wm_serve on loopback TCP, closed loop, seeded mix

Every workload runs with THREADS executors or connections (fewer if
the machine has fewer cores).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
THREADS = 2
BUILD_TYPE = "RelWithDebInfo"
REPLY_TIMEOUT_MS = 10000  # the driver's client timeout (serve.cpp)
CLEARED_ENV = ("WM_THREADS", "WM_TRACE", "WM_LOG", "WM_PROGRESS",
               "WM_SLOW_MS", "WM_CRASH_AFTER", "WM_SEED")

# Per-layer metrics made from span totals (ms per round of the span's
# root): metric name -> span name.
SPAN_METRICS = {
    "graph.enumerate_ms": "graph.enumerate",
    "graph.canonical_ms": "graph.canonical",
    "port.numbering_ms": "port.numbering",
    "core.instance_ms": "core.instance",
    "logic.kripke_ms": "logic.kripke",
    "logic.union_ms": "logic.union",
    "bisim.refine_ms": "bisim.refine",
    "core.analyse_ms": "core.analyse",
    "logic.modelcheck_ms": "logic.modelcheck",
    "runtime.execute_ms": "runtime.execute",
    "serve.handle_hit_ms": "serve.handle_hit",
    "serve.handle_miss_ms": "serve.handle_miss",
    "store.census_ms": "store.census",
}
ROUND_SPAN = {"locality": "locality.round", "census": "census.round",
              "serve": "serve.round"}
# Per-operation latencies, printed with every untraced run but not in
# BENCHMARK.json: over ten runs on a shared host their interquartile
# range reached 29% of the median on serve (a hit is ~0.1 ms of loopback
# and context switches) and 25% on locality, past the 25% bound a gated
# metric may have. run_s and ops_per_s time the same operations.
UNGATED = ("p50_ms", "p99_ms", "tail_ms")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(out):
    """Configures (once) and builds perfbench/ under `out`; returns the
    build tree. Serialised by a lock file so concurrent runs share it."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources not found under %s/src" % ROOT)
    tree = out / "perfbench"
    tree.mkdir(parents=True, exist_ok=True)
    logfile = out / "perfbench-build.log"
    with open(out / "perfbench-build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (tree / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(tree),
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", str(tree), "-j", jobs])
        with open(logfile, "w") as logf:
            for step in steps:
                if subprocess.run(step, stdout=logf, stderr=subprocess.STDOUT,
                                  timeout=840).returncode != 0:
                    raise RuntimeError("build failed; see %s" % logfile)
    return tree


def cache_value(tree, key):
    for line in (tree / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def run_driver(tree, args, threads):
    """Runs the driver in a fresh scratch directory; returns (raw, spans)."""
    work = build_dir() / "work" / ("%s-%d-%d" % (args.workload, args.seed,
                                                 os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    cmd = [str(tree / "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--threads", str(threads),
           "--out", str(work), "--serve-bin", str(tree / "wm_serve")]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=sys.stderr,
                              timeout=2 * args.seconds + 60)
        if proc.returncode != 0:
            raise RuntimeError("driver exited with %d" % proc.returncode)
        raw = json.loads((work / "raw.json").read_text())
        spans = None
        if args.trace:
            trace_file = work / "spans.json"
            events = json.loads(trace_file.read_text())["traceEvents"]
            spans = [{"id": e["args"]["id"], "parent": e["args"]["parent"],
                      "name": e["name"], "start": e["ts"],
                      "end": e["ts"] + e["dur"], "rid": e["args"]["rid"]}
                     for e in events]
            kept = build_dir() / "traces" / ("%s-seed%d.json" %
                                             (args.workload, args.seed))
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(trace_file, kept)
            log("spans written to %s" % kept)
        return raw, spans
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(raw):
    """name -> (value, note) for the end-to-end metrics of BENCHMARK.json
    and the latency metrics printed beside them but not gated (UNGATED):
    p50_ms, and p99_ms, or tail_ms at the highest percentile the sample
    count allows when that is below p99."""
    samples = stats.latency_samples(raw["op_ms"], raw["failed_ops"],
                                    REPLY_TIMEOUT_MS)
    rounds = raw["round_s"]
    tail = stats.tail_percentile(samples)
    if tail is None:
        raise RuntimeError("too few operations for a tail percentile")
    level, value = tail
    op = raw["op_name"]
    return {
        "run_s": (stats.median(rounds),
                  "median of %d rounds" % len(rounds)),
        "setup_s": (stats.median(raw["setup_s"]),
                    "median of %d set-ups" % len(raw["setup_s"])),
        "ops_per_s": (stats.middle_rate(raw["round_ops"], rounds),
                      "%s over the middle half of %d rounds by duration, "
                      "%d in all" % (op, len(rounds), raw["ops"])),
        "p50_ms": (stats.median(samples),
                   "median %s, n=%d" % (op, len(samples))),
        "p99_ms" if level == 99.0 else "tail_ms": (
            value, "p%.2f %s, n=%d, %d beyond" % (
                level, op, len(samples), sum(v > value for v in samples))),
        "peak_rss_mb": (raw["peak_rss_mb"], "the daemon's" if
                        raw["workload"] == "serve" else "this driver's"),
    }


def per_layer(raw, spans):
    """(metrics, table): name -> (value, note), and the span table."""
    table = stats.span_table(spans, raw["divisors"])

    def ms(span):
        return table[span]["total_ms"] if span in table else 0.0

    out = {}
    for metric, span in SPAN_METRICS.items():
        calls = table[span]["calls"] if span in table else 0.0
        out[metric] = (ms(span), "%.1f calls per round" % calls)
    if raw["workload"] == "locality":
        parts = ms("logic.kripke") + ms("logic.union") + ms("bisim.refine")
        out["core.analyse_self_ms"] = (
            ms("core.analyse_serial") - parts,
            "one-thread analyse - kripke - union - refine, in the replay")
    else:
        out["core.analyse_self_ms"] = (0.0, "no decomposition on this workload")
    if raw["workload"] == "serve":
        handled = ms("serve.handle_hit") + ms("serve.handle_miss")
        out["serve.transport_ms"] = (ms("serve.request") - handled,
                                     "client latency - in-process handling")
    else:
        out["serve.transport_ms"] = (0.0, "no transport on this workload")
    for name in ("graph.canonical_forms", "logic.union_states_copied",
                 "bisim.refine_calls", "bisim.rounds", "serve.hit_ratio",
                 "store.fresh_keys", "store.spills", "store.bytes",
                 "util.pool_steals", "util.pool_idle_wakeups"):
        out[name] = (raw["counts"].get(name, 0.0), "per round")
    for note in raw["notes"]:
        if note.startswith("serve.hit_ratio"):
            out["serve.hit_ratio"] = (out["serve.hit_ratio"][0], note)
    round_span = ROUND_SPAN[raw["workload"]]
    out["unattributed_ms"] = (table[round_span]["self_ms"],
                              "round time no layer span covers")
    overhead = stats.median(raw["traced_round_s"]) - stats.median(raw["round_s"])
    out["trace_overhead_ms"] = (1000.0 * overhead,
                                "median traced round - median untraced round")
    return out, table


def print_attribution(raw, table, layer):
    print("layer attribution (ms per round of each root span; self = "
          "minus what child spans cover):")
    roots = sorted({row["root"] for row in table.values()})
    for root in roots:
        print("  [%s]" % root)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_ms"]):
            if row["root"] != root:
                continue
            print("    %-22s total %12.4f  self %12.4f  calls %10.1f" % (
                name, row["total_ms"], row["self_ms"], row["calls"]))
    print("  unattributed (round self time): %.4f ms" % layer["unattributed_ms"][0])
    print("  trace overhead: %.4f ms per round" % layer["trace_overhead_ms"][0])
    if raw["workload"] == "locality":
        analyse = table["core.analyse_serial"]["total_ms"]
        parts = {k: layer[k][0] for k in ("logic.kripke_ms", "logic.union_ms",
                                          "bisim.refine_ms",
                                          "core.analyse_self_ms")}
        top = max(parts, key=parts.get)
        print("  analyse_solvability breakdown (one thread, replay): " + ", ".join(
            "%s %.1f%%" % (k, 100.0 * v / analyse) for k, v in parts.items()))
        print("  ROADMAP finding (the disjoint_union fold dominates "
              "analyse_solvability): %s" % (
                  "reproduced" if top == "logic.union_ms" else
                  "NOT reproduced, the largest part is " + top))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["locality", "census", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    threads = max(1, min(THREADS, len(os.sched_getaffinity(0))))
    try:
        tree = build(build_dir())
        raw, spans = run_driver(tree, args, threads)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 1

    share, base = stats.fail_share(raw["attempted"], raw["failed"], raw["wrong"])
    checks_ok = all(v.startswith("ok") for _, v in raw["checks"])
    correct = checks_ok and raw["failed"] == 0 and raw["wrong"] == 0
    print("perfbench %s seed=%d seconds=%g trace=%d %s=%d build=%s obs=on" % (
        args.workload, args.seed, args.seconds, args.trace,
        "connections" if args.workload == "serve" else "threads", threads,
        cache_value(tree, "CMAKE_BUILD_TYPE")))
    for name, verdict in raw["checks"]:
        print("  check %-44s %s" % (name, verdict))
    for note in raw["notes"]:
        print("  note  %s" % note)
    print(stats.metric_line("fail_share", share, "ratio", base))

    try:
        if args.trace:
            metrics, table = per_layer(raw, spans)
            print_attribution(raw, table, metrics)
        else:
            metrics = end_to_end(raw)
    except (RuntimeError, KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    result = {}
    for m in wanted:
        value, note = metrics.pop(m["name"])
        print(stats.metric_line(m["name"], value, m["unit"], note))
        result[m["name"]] = (value, m["unit"])
    for name in UNGATED:
        if name in metrics:
            value, note = metrics[name]
            print(stats.metric_line(name, value, "ms", note + ", not gated"))
    print(stats.result_line(correct, raw["attempted"],
                            raw["failed"] + raw["wrong"], result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
