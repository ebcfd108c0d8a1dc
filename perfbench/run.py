#!/usr/bin/env python3
"""Repository benchmark: seeded end-to-end workloads with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/ (and with it the library,
from the checkout's sources) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs the workload
harness and prints the environment, the input size and the metrics.  The
last line of standard output is one JSON object: with --trace 0 it carries
the end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run.  Exit status 0 means every output checked out; 1 means a run or
check failed (the JSON says "correct": false); 2 means the benchmark could
not build or run.  README.md in this directory defines the workloads and
metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
# The workloads of BENCHMARK.json.  base_sweep still runs on request (the
# no-change witness for parser and probe-path changes) but is not listed:
# its single-threaded, compute-bound passes follow the host's speed too
# closely for the benchmark's bounds.
WORKLOADS = ["repair_heavy", "provenance_pipeline", "campaign_lanes"]
EXTRA_WORKLOADS = ["base_sweep"]

# (name, unit, better) of the end-to-end metrics in the JSON line.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("runs_per_s", "runs/s", "higher"),
    ("run_ms_p50", "ms", "lower"),
    ("cpu_ms_per_run", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("energy_nj", "nJ", "lower"),
]
# Printed with them but left out of the JSON line: run_ms_p90 does not
# repeat within the bounds from seed to seed on repair_heavy, and
# deadline_misses and fail_rate are zero on most workloads.
PRINTED_ONLY = [
    ("run_ms_p90", "ms", "lower"),
    ("deadline_misses", "count", "lower"),
    ("fail_rate", "share", "lower"),
]

# Span name -> mean self time per call, reported as "<span>_ms".
LAYER_SPANS = [
    "ctg.read",
    "core.schedule_eas",
    "core.schedule_eas_observed",
    "core.validate",
    "core.write_schedule",
    "baseline.schedule_edf",
    "audit.write_decisions",
    "audit.read_decisions",
    "audit.replay",
    "analysis.analyze",
    "analysis.write_json",
    "obs.write_trace",
    "obs.write_metrics",
    "campaign.run",
    "campaign.write",
]

PER_LAYER = [(span + "_ms", "ms", "lower") for span in LAYER_SPANS] + [
    ("ctg.read_mb_per_s", "MB/s", "higher"),
    ("core.probes_issued", "count", "lower"),
    ("core.probe_hit_rate", "share", "higher"),
    ("core.parallel_batches", "count", "lower"),
    ("core.repair_evals", "count", "lower"),
    ("core.repair_accept_rate", "share", "higher"),
    ("core.repair_rebuilds", "count", "lower"),
    ("core.repair_suffix_reuse_rate", "share", "higher"),
    ("core.repair_bound_aborts", "count", "higher"),
    ("core.budget_retries", "count", "lower"),
    ("core.deadline_misses", "count", "lower"),
    ("baseline.edf_energy_nj", "nJ", "lower"),
    ("audit.decisions_mb", "MB", "lower"),
    ("obs.trace_events", "count", "lower"),
    ("campaign.lane_busy_share", "share", "higher"),
    ("campaign.lane_cpu_share", "share", "higher"),
    ("gen.generate_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.accounted_share", "share", "higher"),
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the harness (incrementally after the first
    run); returns its path and the build directory."""
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    build_dir = root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench_harness", "-j", jobs],
    ]
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=850)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                fail("build failed (%s):\n%s" % (log_path, "\n".join(tail)))
    return build_dir / "perfbench_harness", build_dir


def cpu_times():
    """Aggregate (steal, total) CPU ticks of the machine from /proc/stat, or
    None where it is unavailable."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def end_to_end(raw):
    u = raw["untraced"]
    lat = u["lat_ms"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "runs_per_s": statistics.median(
            r / w for r, w in zip(u["pass_runs"], u["pass_wall_s"])),
        "run_ms_p50": stats.percentile(lat, 50),
        "run_ms_p90": stats.percentile(lat, 90),
        "cpu_ms_per_run": statistics.median(
            c * 1e3 / r for c, r in zip(u["pass_cpu_s"], u["pass_runs"])),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "energy_nj": u["sums"]["energy_nj"],
        "deadline_misses": u["sums"]["deadline_misses"],
    }


def spans_of(raw):
    names = raw["span_names"]
    return [(names[n], run, parent, start, end) for n, run, parent, start, end in raw["spans"]]


def per_layer(raw):
    t = raw["traced"]
    s = t["sums"]
    by_name = stats.self_time_by_name(spans_of(raw))  # ns
    out = {}
    for span in LAYER_SPANS:
        calls, total_ns = by_name.get(span, (0, 0))
        out[span + "_ms"] = stats.share(total_ns / 1e6, calls)
    read_ns = by_name.get("ctg.read", (0, 0))[1]
    layer_ns = sum(total for name, (_, total) in by_name.items() if not name.startswith("bench."))
    out.update({
        "ctg.read_mb_per_s": stats.share(t["bytes_read"] / 1e6, read_ns / 1e9),
        "core.probes_issued": s["probes_issued"],
        "core.probe_hit_rate": stats.share(s["cache_hits"], s["probes_issued"] + s["cache_hits"]),
        "core.parallel_batches": s["parallel_batches"],
        "core.repair_evals": s["repair_evals"],
        "core.repair_accept_rate": stats.share(s["repair_accepted"], s["repair_evals"]),
        "core.repair_rebuilds": s["repair_rebuilds"],
        "core.repair_suffix_reuse_rate": stats.share(
            s["commits_reused"], s["commits_rebuilt"] + s["commits_reused"]),
        "core.repair_bound_aborts": s["bound_aborts"],
        "core.budget_retries": s["budget_retries"],
        "core.deadline_misses": s["deadline_misses"],
        "baseline.edf_energy_nj": s["edf_energy_nj"],
        "audit.decisions_mb": stats.share(s["decisions_bytes"] / 1e6, s["observed_runs"]),
        "obs.trace_events": stats.share(s["trace_events"], s["observed_runs"]),
        "campaign.lane_busy_share": stats.share(
            t["unit_wall_s"], raw["env"]["lanes"] * t["campaign_wall_s"]),
        "campaign.lane_cpu_share": stats.share(t["unit_cpu_s"], t["unit_wall_s"]),
        "gen.generate_ms": statistics.median(raw["generate_s"]) * 1e3,
        "trace.overhead_ms": statistics.fmean(t["lat_ms"]) -
        statistics.fmean(raw["untraced"]["lat_ms"]),
        "trace.accounted_share": stats.share(layer_ns / 1e9, wall_s(t)),
    })
    return out, by_name


def wall_s(phase):
    """Wall time of a phase: its passes and its once-per-phase runs."""
    return sum(phase["pass_wall_s"]) + sum(phase["once_ms"]) / 1e3


def print_header(raw, args):
    env = raw["env"]
    inp = raw["input"]
    print("perfbench %s  seed=%d  seconds=%g  trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("env: nproc=%d probe_pool_workers=%d lanes=%d compiler=%s build_type=%s NOCEAS_OBS=%d"
          % (env["nproc"], env["probe_pool_workers"], env["lanes"], env["compiler"],
             env["build_type"], env["noceas_obs"]))
    units = ", %d units per campaign" % inp["units_per_campaign"] if inp["units_per_campaign"] else ""
    print("input: %d instances%s, %d tasks, %d edges, %.2f MB text; "
          "EAS-base missed a deadline on %d of %d draws"
          % (inp["instances"], units, inp["tasks"], inp["edges"], inp["text_bytes"] / 1e6,
             inp["base_missed"], inp["draws"]))
    u = raw["untraced"]
    print("loop: closed, %s, EAS probes and repair %s; untraced: %s"
          % ("%d lanes" % env["lanes"] if env["lanes"] > 1 else "1 caller",
             "serial" if env["serial_eas"] else "on the shared pool", phase_summary(u)))


def phase_summary(phase):
    once = phase["once_ms"]
    return "%d runs in %d passes over %.2f s%s" % (
        sum(phase["pass_runs"]), len(phase["pass_runs"]), sum(phase["pass_wall_s"]),
        ", plus %d run(s) once before them over %.2f s" % (len(once), sum(once) / 1e3)
        if once else "")


def print_metrics(title, specs, values, notes=None):
    print(title)
    for name, unit, _ in specs:
        note = (notes or {}).get(name, "")
        print("  %-30s %16.6g %-7s %s" % (name, values[name], unit, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    exe, build_dir = build()
    out_dir = build_dir / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / ("%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    if out_path.exists():
        out_path.unlink()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(out_path)]
    before = cpu_times()
    try:
        done = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    after = cpu_times()
    if done.returncode not in (0, 1) or not out_path.exists():
        fail("harness failed with exit status %d" % done.returncode)
    raw = json.loads(out_path.read_text())

    print_header(raw, args)
    if before and after:
        # Time the hypervisor gave other guests while this VM wanted to run;
        # timings from runs with high steal are not comparable.
        print("host steal: %.1f%% of CPU time during the run" % (
            100 * stats.share(after[0] - before[0], after[1] - before[1])))
    u = raw["untraced"]
    attempted = u["runs"] + (raw["traced"]["runs"] if args.trace else 0)
    failed = u["failed"] + (raw["traced"]["failed"] if args.trace else 0)
    problems = list(raw["errors"])
    if args.trace == 0:
        metrics = end_to_end(raw)
        lat = u["lat_ms"]
        if not stats.tail_ok(lat, 90):
            problems.append("fewer than %d samples above p90" % stats.MIN_TAIL_SAMPLES)
        per_input = "n=%d runs of the passes" % len(lat)
        metrics["fail_rate"] = stats.share(failed, attempted)
        notes = {
            "setup_s": "median of %d set-ups" % len(raw["setup_s"]),
            "runs_per_s": "median of %d passes" % len(u["pass_runs"]),
            "run_ms_p50": per_input,
            "run_ms_p90": "%s; %d above" % (
                per_input, stats.samples_above(lat, metrics["run_ms_p90"])),
            "cpu_ms_per_run": "median of %d passes" % len(u["pass_runs"]),
            "fail_rate": "%d of %d runs" % (failed, attempted),
        }
        print_metrics("end-to-end (untraced):", END_TO_END, metrics, notes)
        print_metrics("also printed, not in the JSON line:", PRINTED_ONLY, metrics, notes)
        specs = END_TO_END
    else:
        metrics, by_name = per_layer(raw)
        t = raw["traced"]
        wall = wall_s(t)
        print("traced: %s; F(i,k) probes per pass: untraced %d, traced %d" % (
            phase_summary(t), u["sums"]["probes_issued"], t["sums"]["probes_issued"]))
        print("  %-30s %8s %14s %8s" % ("span", "calls", "self ms", "of wall"))
        for name, (calls, total_ns) in sorted(by_name.items(), key=lambda kv: -kv[1][1]):
            print("  %-30s %8d %14.3f %7.1f%%" % (
                name, calls, total_ns / 1e6, 100 * stats.share(total_ns / 1e9, wall)))
        print_metrics("per-layer (traced run):", PER_LAYER, metrics)
        specs = PER_LAYER
    for p in problems:
        print("FAILED: " + p)

    correct = done.returncode == 0 and failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
