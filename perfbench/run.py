#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from this checkout's sources,
runs one workload and prints every metric of BENCHMARK.json.

    python3 perfbench/run.py --workload roster_grid --seed 1 --seconds 30 \
        --trace 0

With --trace 0 the last line carries the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run. Lines before it name each metric with
its unit, the output-check verdicts and the host stamps (nproc, build type,
GEMM tier, CPU steal over the run). Run from the root of a checkout; the
build goes to .bench_build (or $CARGO_TARGET_DIR) under that root.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
GEMM_TIERS = {0: "portable", 1: "avx2", 2: "avx512"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail("no program sources under " + str(ROOT / "src"))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", "fedl_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return out / "fedl_perfbench"


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_frac(before, after):
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def rep_epochs(rep):
    return sum(t["epochs"] for t in rep["trials"])


def check_reps(reps, what, tally):
    """Every trial of every repetition against the first repetition."""
    reference = [t["fingerprint"] for t in reps[0]["trials"]]
    for r, rep in enumerate(reps):
        for i, t in enumerate(rep["trials"]):
            where = "%s %d trial %d" % (what, r, i)
            if t["error"]:
                tally.check(False, where + " threw: " + t["error"])
            elif not t["within_budget"]:
                tally.check(False, where + " overdrew the budget")
            else:
                tally.check(t["fingerprint"] == reference[i],
                            where + " fingerprint differs: " +
                            t["fingerprint"])


def check_outputs(raw, tally):
    plain = raw["plain"]
    traced = raw.get("traced", {})
    check_reps([plain["warmup"]] + plain["reps"] + traced.get("reps", []),
               "rep", tally)
    check_reps(plain["control"] + traced.get("control", []),
               "control pass", tally)
    inv = raw["invariance"]
    tally.check(inv["serial"] == inv["parallel"] and
                not inv["serial"].startswith("error"),
                "thread invariance: jobs 1 threads 1 gave %r, jobs 4 gave %r"
                % (inv["serial"], inv["parallel"]))
    # The traced driver must reproduce Experiment::run's per-epoch records.
    ref_records = [t["records_digest"] for t in plain["warmup"]["trials"]]
    for r, rep in enumerate(raw.get("traced", {}).get("reps", [])):
        for i, t in enumerate(rep["trials"]):
            if ref_records[i]:
                tally.check(t["records_digest"] == ref_records[i],
                            "traced rep %d trial %d: records differ from "
                            "Experiment::run's" % (r, i))


def end_to_end(raw, tally):
    reps = raw["plain"]["reps"]
    setups = raw["plain"]["setup_s"]
    # Host hiccups of tens of ms hit a fraction of a percent of epochs; a
    # tail over a whole run's thousands of samples would measure only them.
    # The tail is taken per batch (one control pass) by the ten-beyond rule,
    # and the median over batches reported.
    batches = raw["plain"]["select_ms"]
    p50 = stats.median([v for b in batches for v in b])
    tails = [stats.tail(b) for b in batches]
    tail = stats.median([t[0] for t in tails])
    metrics = {
        "epochs_per_s": stats.median(
            [rep_epochs(r) / r["wall_s"] for r in reps]),
        "cpu_ms_per_epoch": stats.median(
            [1e3 * r["cpu_s"] / rep_epochs(r) for r in reps]),
        "setup_s": stats.median(setups),
        "peak_rss_mb": raw["peak_rss_mib"],
        "ok_frac": 1.0 - tally.failed_frac,
        "select_ms_p50": p50,
        "select_ms_tail": tail,
    }
    notes = {
        "epochs_per_s": "median of %d repetitions" % len(reps),
        "cpu_ms_per_epoch": "median of %d repetitions" % len(reps),
        "setup_s": "median of %d set-ups" % len(setups),
        "ok_frac": "failed_frac %.6g (%d of %d operations)"
                   % (tally.failed_frac, tally.failed, tally.attempted),
        "select_ms_p50": "n=%d" % sum(len(b) for b in batches),
        "select_ms_tail": "median over %d batches of p%.4g, n=%d each"
                          % (len(tails), tails[0][1], tails[0][2]),
    }
    return metrics, notes


def load_spans(path):
    """(name, duration, self time) of every span, as two lists: the
    workload trials' spans and the selection control worlds' spans."""
    with open(path) as f:
        doc = json.load(f)
    by_trial = {}
    for name, trial, parent, start, end in doc["spans"]:
        by_trial.setdefault(trial, []).append(
            (doc["names"][name], start, end, parent))
    rows, control = [], []
    for spans in by_trial.values():
        selfs = stats.self_times([(s, e, p) for _, s, e, p in spans])
        root = next(n for n, _, _, p in spans if p == -1)
        (control if root == "select.world" else rows).extend(
            (n, e - s, st) for (n, s, e, _), st in zip(spans, selfs))
    return rows, control


def per_layer(raw):
    """Per-layer metrics of the traced phase, and notes for the tails."""
    traced = raw["traced"]
    reps = traced["reps"]
    # Counts come from the first traced repetition (or control pass), a
    # fixed amount of work, so they repeat exactly; rates and span timings
    # use every repetition.
    first = reps[0]["counters"]
    total = {}
    for r in reps:
        for k, v in r["counters"].items():
            total[k] = total.get(k, 0) + v
    control = traced["control"]
    control_first = control[0]["counters"]
    control_trials = [t for c in control for t in c["trials"]]
    rows, control_rows = load_spans(raw["spans_out"])

    def durations(name, scale=1.0, source=rows):
        return [scale * d for n, d, _ in source if n == name]

    def selection(name):  # sim/core calls of the selection control, in ms
        return durations(name, 1e3, control_rows)

    def ratio(a, b):
        return a / b if b else 0.0

    notes = {}

    def tail_of(metric, values):
        value, pct, n = stats.tail(values)
        notes[metric] = "p%.4g of n=%d" % (pct, n)
        return value

    trial_s = durations("harness.trial")
    trial_self = sum(st for n, _, st in rows if n == "harness.trial")
    fl_names = ("fl.run_epoch", "fl.event.dispatch", "fl.event.run_until_flush",
                "fl.evaluate_cohort")
    fl_s = sum(d for n, d, _ in rows if n in fl_names)
    wall = sum(r["wall_s"] for r in reps)
    cpu = sum(r["cpu_s"] for r in reps)
    plain_s_per_epoch = stats.median(
        [r["wall_s"] / rep_epochs(r) for r in raw["plain"]["reps"]])
    traced_s_per_epoch = stats.median([r["wall_s"] / rep_epochs(r)
                                       for r in reps])
    flushes = first.get("fl.async.flushes", 0)
    return notes, {
        "harness.trial_s_p50": stats.median(trial_s),
        "harness.trial_s_tail": tail_of(
            "harness.trial_s_tail", trial_s),
        "harness.grid_occupancy": ratio(sum(trial_s), wall * raw["jobs"]),
        "data.synthesize_s": stats.median(durations("data.synthesize")),
        "data.partition_s": stats.median(durations("data.partition")),
        "sim.advance_ms_p50": stats.median(selection("sim.advance_epoch")),
        "sim.advance_ms_tail": tail_of(
            "sim.advance_ms_tail", selection("sim.advance_epoch")),
        "sim.available_mean": ratio(
            sum(t["available_sum"] for t in control_trials),
            sum(t["advances"] for t in control_trials)),
        "core.decide_ms_p50": stats.median(selection("core.decide")),
        "core.decide_ms_tail": tail_of(
            "core.decide_ms_tail", selection("core.decide")),
        "core.observe_ms_p50": stats.median(selection("core.observe")),
        "core.resident_bytes": max(t["resident_bytes"]
                                   for t in control[0]["trials"]),
        "core.pruned": control_first.get("learner.pruned", 0),
        "core.repaired_clients": control_first.get(
            "budget.repaired_clients", 0),
        "solver.calls": control_first.get("solver.calls", 0),
        "solver.iters_per_call": ratio(
            control_first.get("solver.iterations", 0),
            control_first.get("solver.calls", 0)),
        "fl.run_epoch_ms_p50": stats.median(durations("fl.run_epoch", 1e3)),
        "fl.run_epoch_ms_tail": tail_of(
            "fl.run_epoch_ms_tail", durations("fl.run_epoch", 1e3)),
        "fl.run_epoch_share": ratio(sum(durations("fl.run_epoch")),
                                    sum(trial_s)),
        "fl.client_iters": first.get("fl.client_iterations", 0),
        "fl.replica_bytes": raw["replica_bytes"],
        "fl.event.dispatch_ms_p50": stats.median(
            durations("fl.event.dispatch", 1e3)),
        "fl.event.flush_ms_p50": stats.median(
            durations("fl.event.run_until_flush", 1e3)),
        "fl.event.flush_ms_tail": tail_of(
            "fl.event.flush_ms_tail", durations("fl.event.run_until_flush", 1e3)),
        "fl.event.flushes": flushes,
        "fl.event.jobs_per_flush": ratio(first.get("fl.async.completes", 0),
                                         flushes),
        "tensor.gemm_calls": first.get("gemm.calls", 0),
        "tensor.gemm_gflop": first.get("gemm.flops", 0) / 1e9,
        "tensor.gemm_gflops_per_s": ratio(total.get("gemm.flops", 0) / 1e9,
                                          fl_s),
        "tensor.gemm_threaded_share": ratio(
            first.get("gemm.threaded_calls", 0), first.get("gemm.calls", 0)),
        "parallel.cores_busy": ratio(cpu, wall),
        "parallel.pool_busy_share": ratio(
            total.get("pool.busy_us", 0) / 1e6, wall * raw["pool_workers"]),
        "parallel.tasks_per_client_iter": ratio(
            first.get("pool.tasks_executed", 0),
            first.get("fl.client_iterations", 0)),
        "parallel.steals": first.get("scheduler.steals", 0),
        "parallel.peak_inflight": raw["peak_inflight"],
        "obs.trace_overhead_frac": ratio(traced_s_per_epoch,
                                         plain_s_per_epoch) - 1.0,
        "obs.span_coverage": 1.0 - ratio(trial_self, sum(trial_s)),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        with open(BENCH_DIR / "layer_map.json") as f:
            layer_map = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read the benchmark definition: %s" % e)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload, workloads))
    for m in spec["per_layer"]:
        if m["name"] not in layer_map["per_layer"]:
            fail("per-layer metric %s has no entry in layer_map.json"
                 % m["name"])
    for w in workloads:
        if w not in layer_map["workloads"]:
            fail("workload %s has no entry in layer_map.json" % w)

    binary = build(build_dir())
    spans_out = build_dir() / ("spans-%s.json" % args.workload)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--spans-out", str(spans_out)]
    ticks0 = cpu_ticks()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    ticks1 = cpu_ticks()
    if done.returncode != 0:
        fail("driver exited with %d" % done.returncode)
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    steal = steal_frac(ticks0, ticks1)
    print("stamps: workload=%s seed=%d nproc=%d hardware_threads=%d "
          "thread_budget=%d jobs=%d build_type=%s gemm_kernel_tier=%s "
          "steal_frac=%s" % (
              args.workload, args.seed, len(os.sched_getaffinity(0)),
              raw["hardware_threads"], raw["thread_budget"], raw["jobs"],
              raw["build_type"],
              GEMM_TIERS.get(int(raw["gemm_kernel_tier"]), "unknown"),
              "n/a" if steal is None else "%.4f" % steal))

    tally = stats.Tally()
    check_outputs(raw, tally)
    print("checks: %d of %d passed (fingerprints identical across "
          "repetitions, cost within budget, thread invariance%s)"
          % (tally.attempted - tally.failed, tally.attempted,
             ", traced-driver fidelity" if args.trace else ""))
    for reason in tally.reasons[:20]:
        print("check failed: " + reason)

    metrics, notes = end_to_end(raw, tally)
    wanted = spec["end_to_end"]
    if args.trace:
        layer_notes, layer = per_layer(raw)
        metrics.update(layer)
        notes.update(layer_notes)
        wanted = spec["per_layer"]
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print("%s = %.6g %s%s" % (m["name"], value, m["unit"],
                                  "  (" + note + ")" if note else ""))
    print("failed_frac = %.6g ratio  (%d of %d operations)"
          % (tally.failed_frac, tally.failed, tally.attempted))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
