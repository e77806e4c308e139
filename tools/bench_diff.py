#!/usr/bin/env python3
"""Compare two sets of BENCH_*.json files and gate on work-counter regressions.

The benches emit a "metrics" object with two counter families:

  * "work"  -- deterministic work counters. Identical across thread counts
               by construction, so any increase between two builds of the
               same bench is a genuine algorithmic regression (more
               assignments scanned, more refinement rounds, ...), not
               scheduling noise. These are gated.
  * "info"  -- scheduling telemetry (steals, idle wakeups, ...). Varies run
               to run; never gated.

Wall-clock ("wall_ms") is reported but never gated: CI machines are too
noisy for time thresholds, which is exactly why the work counters exist.

Usage:
  bench_diff.py [--threshold PCT] [--exact] BASELINE_DIR CURRENT_DIR
  bench_diff.py --self-test

Exit status: 0 = no regressions, 1 = regression (or missing bench/counter),
2 = bad invocation or unreadable input.

Rules, per bench file present in BASELINE_DIR:
  * bench json missing from CURRENT_DIR ............ FAIL (coverage lost)
  * work counter missing from current .............. FAIL (instrumentation
                                                     silently dropped)
  * work counter grew beyond threshold ............. FAIL (default 5%; a
                                                     baseline of 0 fails on
                                                     any growth)
  * work counter shrank, or is new in current ...... informational only
  * --exact: any work-counter difference at all .... FAIL (used by CI to
             assert cross-thread-count determinism of the same build)

And per bench file present only in CURRENT_DIR:
  * bench json with no matching baseline ........... FAIL (an ungated bench
                                                     is a silent coverage
                                                     hole; check in a
                                                     baseline or pass
                                                     --allow-new while one
                                                     is being prepared)

The json's "manifest" (provenance) and "timings" (duration histograms)
objects are timing/environment-dependent by design and are ignored by
every rule above — only metrics.work is ever gated. A large latency
move is still worth a line in the CI log: a p99 shift of at least 2x
either way (both sets having recorded samples) is surfaced as an
informational note, and can never fail the gate -- not even under
--exact.
"""

import argparse
import contextlib
import glob
import io
import json
import os
import sys
import tempfile


def load_bench(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_diff: cannot read {path}: {e}")
    work = data.get("metrics", {}).get("work")
    if not isinstance(work, dict):
        raise SystemExit(f"bench_diff: {path} has no metrics.work object")
    return data


def collect(dirname):
    paths = sorted(glob.glob(os.path.join(dirname, "BENCH_*.json")))
    return {os.path.basename(p): load_bench(p) for p in paths}


def diff_sets(baseline, current, threshold, exact, allow_new=False):
    """Returns (failures, notes) as lists of human-readable lines."""
    failures = []
    notes = []
    for fname in sorted(baseline):
        base = baseline[fname]
        name = base.get("name", fname)
        if fname not in current:
            failures.append(f"{name}: bench json missing from current set")
            continue
        cur = current[fname]
        bwork = base["metrics"]["work"]
        cwork = cur["metrics"]["work"]
        for key in sorted(bwork):
            bval = bwork[key]
            if key not in cwork:
                failures.append(
                    f"{name}: work counter '{key}' missing from current "
                    f"(baseline {bval})")
                continue
            cval = cwork[key]
            if exact:
                if cval != bval:
                    failures.append(
                        f"{name}: '{key}' differs ({bval} -> {cval})")
                continue
            limit = bval * (1.0 + threshold / 100.0)
            if cval > limit:
                pct = (100.0 * (cval - bval) / bval) if bval else float("inf")
                failures.append(
                    f"{name}: '{key}' regressed {bval} -> {cval} "
                    f"(+{pct:.1f}%, threshold {threshold:.1f}%)")
            elif cval < bval:
                notes.append(f"{name}: '{key}' improved {bval} -> {cval}")
        for key in sorted(set(cwork) - set(bwork)):
            if exact:
                failures.append(
                    f"{name}: '{key}' differs (absent -> {cwork[key]})")
            else:
                notes.append(f"{name}: new work counter '{key}' = {cwork[key]}")
        bms, cms = base.get("wall_ms"), cur.get("wall_ms")
        if isinstance(bms, (int, float)) and isinstance(cms, (int, float)):
            notes.append(
                f"{name}: wall_ms {bms:.1f} -> {cms:.1f} (informational)")
        # Latency p99 shifts: duration histograms are environment-
        # dependent, so they can never gate -- but an order-of-magnitude
        # p99 move is worth a CI-log line. Noted when both sets recorded
        # samples for the phase and the shift is at least 2x either way.
        btim = base.get("timings") or {}
        ctim = cur.get("timings") or {}
        for key in sorted(set(btim) & set(ctim)):
            bt, ct = btim[key], ctim[key]
            if not (isinstance(bt, dict) and isinstance(ct, dict)):
                continue
            bp99, cp99 = bt.get("p99_us"), ct.get("p99_us")
            if not (isinstance(bp99, (int, float))
                    and isinstance(cp99, (int, float))):
                continue
            if bt.get("count", 0) <= 0 or ct.get("count", 0) <= 0 \
                    or bp99 <= 0:
                continue
            ratio = cp99 / bp99
            if ratio >= 2.0 or ratio <= 0.5:
                notes.append(
                    f"{name}: timing '{key}' p99 {bp99:.1f}µs -> "
                    f"{cp99:.1f}µs ({ratio:.2f}x, informational -- "
                    f"latency never gates)")
    for fname in sorted(set(current) - set(baseline)):
        name = current[fname].get("name", fname)
        if allow_new:
            notes.append(f"{name}: new bench (no baseline; --allow-new)")
        else:
            failures.append(
                f"{name}: bench json has no matching baseline (check one "
                f"in, or pass --allow-new)")
    return failures, notes


def run_diff(args):
    baseline = collect(args.baseline)
    current = collect(args.current)
    if not baseline:
        raise SystemExit(f"bench_diff: no BENCH_*.json under {args.baseline}")
    failures, notes = diff_sets(baseline, current, args.threshold, args.exact,
                                args.allow_new)
    for line in notes:
        print(f"  note: {line}")
    for line in failures:
        print(f"  FAIL: {line}")
    if failures:
        print(f"bench_diff: {len(failures)} regression(s) across "
              f"{len(baseline)} baseline bench(es)")
        return 1
    print(f"bench_diff: OK ({len(baseline)} bench(es), "
          f"threshold {'exact' if args.exact else f'{args.threshold:.1f}%'})")
    return 0


def self_test():
    """Exercises the gate on synthetic data; exits non-zero if any rule
    misfires. CI runs this so the gate itself is covered by the gate job."""

    def write_set(root, sub, work, wall=10.0, name="fake", manifest=None,
                  timings=None):
        d = os.path.join(root, sub)
        os.makedirs(d, exist_ok=True)
        blob = {"name": name, "n": 4, "threads": 2, "wall_ms": wall,
                "graphs_per_sec": 0.0,
                "metrics": {"work": work, "info": {"pool.tasks": 3}}}
        if manifest is not None:
            blob["manifest"] = manifest
        if timings is not None:
            blob["timings"] = timings
        with open(os.path.join(d, f"BENCH_{name}.json"), "w") as f:
            json.dump(blob, f)
        return d

    class A:
        threshold = 5.0
        exact = False
        allow_new = False

    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        a = A()
        a.baseline = write_set(tmp, "base", {"engine.rounds": 100,
                                             "decision.blocks": 40})
        # Identical -> pass.
        a.current = write_set(tmp, "same", {"engine.rounds": 100,
                                            "decision.blocks": 40})
        checks.append(("identical sets pass", run_diff(a) == 0))
        # Within threshold -> pass; wall-time doubling is ignored.
        a.current = write_set(tmp, "near", {"engine.rounds": 104,
                                            "decision.blocks": 40}, wall=99.0)
        checks.append(("4% growth within 5% passes", run_diff(a) == 0))
        # Beyond threshold -> fail.
        a.current = write_set(tmp, "slow", {"engine.rounds": 120,
                                            "decision.blocks": 40})
        checks.append(("20% growth fails", run_diff(a) == 1))
        # Dropped counter -> fail.
        a.current = write_set(tmp, "drop", {"engine.rounds": 100})
        checks.append(("dropped counter fails", run_diff(a) == 1))
        # Improvement and new counter -> pass.
        a.current = write_set(tmp, "wins", {"engine.rounds": 50,
                                            "decision.blocks": 40,
                                            "bisim.refinements": 7})
        checks.append(("improvement passes", run_diff(a) == 0))
        # Exact mode: the same improvement must now fail.
        a.exact = True
        checks.append(("exact mode flags any difference", run_diff(a) == 1))
        a.current = write_set(tmp, "same2", {"engine.rounds": 100,
                                             "decision.blocks": 40})
        checks.append(("exact mode passes identical", run_diff(a) == 0))
        # Missing bench file -> fail.
        a.exact = False
        empty = os.path.join(tmp, "empty")
        os.makedirs(empty)
        a.current = empty
        checks.append(("missing bench json fails", run_diff(a) == 1))
        # New bench with no baseline -> fail, unless --allow-new.
        work = {"engine.rounds": 100, "decision.blocks": 40}
        a.current = write_set(tmp, "extra", work)
        write_set(tmp, "extra", {"other.counter": 1}, name="ungated")
        checks.append(("new bench without baseline fails", run_diff(a) == 1))
        a.allow_new = True
        checks.append(("--allow-new tolerates the new bench",
                       run_diff(a) == 0))
        a.allow_new = False
        # Manifest and timings differ wildly, work identical -> pass: the
        # gate must ignore provenance and duration histograms entirely.
        a.baseline = write_set(
            tmp, "mbase", work,
            manifest={"git": "v1-g0000000", "start": "2026-01-01T00:00:00Z"},
            timings={"engine.execute": {"count": 9, "p50_us": 1.023,
                                        "p90_us": 2.047, "p99_us": 2.047,
                                        "max_us": 1.900}})
        a.current = write_set(
            tmp, "mcur", work,
            manifest={"git": "v2-gfffffff", "start": "2026-06-01T12:00:00Z",
                      "trace": True},
            timings={"engine.execute": {"count": 9000, "p50_us": 500.0,
                                        "p90_us": 900.0, "p99_us": 1000.0,
                                        "max_us": 5000.0},
                     "bench.extra.phase": {"count": 1, "p50_us": 1.0,
                                           "p90_us": 1.0, "p99_us": 1.0,
                                           "max_us": 1.0}})
        checks.append(("manifest/timings drift ignored", run_diff(a) == 0))
        a.exact = True
        checks.append(("manifest/timings drift ignored under --exact",
                       run_diff(a) == 0))
        a.exact = False
        # That 2.047µs -> 1000µs p99 move (both sets sampled the phase)
        # must be *noted* without gating; a phase present in only one
        # set must not produce a p99 note.
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run_diff(a)
        checks.append(("p99 shift >=2x is noted but never gates",
                       rc == 0
                       and "timing 'engine.execute' p99" in buf.getvalue()
                       and "bench.extra.phase" not in buf.getvalue()))
        a.exact = True
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run_diff(a)
        checks.append(("p99 shift never gates under --exact",
                       rc == 0
                       and "timing 'engine.execute' p99" in buf.getvalue()))
        a.exact = False
        # A sub-2x shift, or a shift on a phase with no recorded samples,
        # stays silent: the note is for order-of-magnitude drift only.
        a.baseline = write_set(
            tmp, "pbase", work,
            timings={"quiet.phase": {"count": 5, "p50_us": 8.0,
                                     "p90_us": 9.0, "p99_us": 10.0,
                                     "max_us": 11.0},
                     "empty.phase": {"count": 0, "p50_us": 0.0,
                                     "p90_us": 0.0, "p99_us": 1.0,
                                     "max_us": 0.0}})
        a.current = write_set(
            tmp, "pcur", work,
            timings={"quiet.phase": {"count": 5, "p50_us": 9.0,
                                     "p90_us": 14.0, "p99_us": 15.0,
                                     "max_us": 16.0},
                     "empty.phase": {"count": 0, "p50_us": 0.0,
                                     "p90_us": 0.0, "p99_us": 999.0,
                                     "max_us": 0.0}})
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run_diff(a)
        checks.append(("sub-2x and zero-count p99 shifts stay silent",
                       rc == 0 and "p99" not in buf.getvalue()))

    bad = [label for label, ok in checks if not ok]
    for label, ok in checks:
        print(f"self-test: {'ok  ' if ok else 'FAIL'} {label}")
    if bad:
        print(f"bench_diff --self-test: {len(bad)} rule(s) misfired")
        return 1
    print(f"bench_diff --self-test: all {len(checks)} rules behave")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description="Gate BENCH_*.json work counters against a baseline set.")
    ap.add_argument("baseline", nargs="?",
                    help="directory holding baseline BENCH_*.json files")
    ap.add_argument("current", nargs="?",
                    help="directory holding freshly produced BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=5.0, metavar="PCT",
                    help="allowed work-counter growth in percent (default 5)")
    ap.add_argument("--exact", action="store_true",
                    help="fail on ANY work-counter difference "
                         "(cross-thread determinism check)")
    ap.add_argument("--allow-new", action="store_true",
                    help="tolerate current benches with no baseline "
                         "(default: FAIL, so new benches must check in a "
                         "baseline to be gated)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate's own rules on synthetic data")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("baseline and current directories are required "
                 "(or use --self-test)")
    return run_diff(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
