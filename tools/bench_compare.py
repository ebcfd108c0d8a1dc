#!/usr/bin/env python3
"""Record / check perf baselines for the runtime_scaling benchmark.

Two modes:

  record   run the bench + a deterministic metrics probe, stamp the result
           with an environment fingerprint, write it to
           bench/baselines/runtime_scaling.json and append a summary snapshot
           to BENCH_runtime_scaling.json (the repo's perf trajectory).

  check    re-run and compare against the checked-in baseline with a noise
           tolerance.  Exits 2 on a timing regression, 0 otherwise.  When the
           environment fingerprint does not match the baseline's the timings
           are not comparable: differences are reported but never fail the
           run (CI uses this as a soft gate until baselines stabilize).

The bench exports per-phase span self times as "self_ms:<call path>"
counters (one extra profiled run per benchmark, outside the timed loop).
record stores them as profile_self_ms next to bench_ms; check uses them to
attribute a timing regression to the span whose exclusive self time grew
the most (the report row gains a suspect_span object).  Benchmarks that
export throughput counters ("*_per_s", e.g. BM_CampaignMerge's merged
units_per_s, or the mb_per_s of BM_DecisionStream_Write/_Read) get those
recorded as bench_rates in the baseline and every trajectory entry, so
fleet-path and serialization throughput are tracked like scheduler
timings.
tools/perf_report.py renders the accumulated trajectory as an HTML
dashboard.

Timings are medians over --repetitions runs of google-benchmark.  The
metrics section (probe cache hit rate, decision counters from a fixed
`noceas_cli schedule --metrics` run, plus the cross-run aggregates of a
fixed `noceas_cli campaign` mini-fleet) is deterministic, so any drift there
is reported exactly; it warns rather than fails because a deliberate
algorithm change legitimately moves those numbers — re-record the baseline
with it.  Counters that follow the host's core count rather than the code
(HOST_DEPENDENT_METRICS: the shared probe pool's batch and probe counts)
are dropped on both sides, so a baseline recorded with them still checks.

`check --json PATH` additionally writes a machine-readable diff
(`noceas.bench_compare.v1`): per-benchmark baseline/current/delta with an
ok / improved / regression / missing / new verdict, the exact metric drift,
and an overall pass / warn / fail verdict.  Pass `-` to write it to stdout
(the human-readable table then goes to stderr).

Usage:
  tools/bench_compare.py record [--build-dir build] [--min-time 0.05]
  tools/bench_compare.py check  [--build-dir build] [--tolerance 0.35] [--json out.json]
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Registry counters whose value depends on how many lanes the process-wide
# probe pool has on this host, not on the schedule: never compared.
HOST_DEPENDENT_METRICS = frozenset({"probe.parallel_batches", "probe.parallel_probes"})


def host_independent(metrics):
    """`metrics` without the HOST_DEPENDENT_METRICS entries."""
    return {k: v for k, v in metrics.items() if k not in HOST_DEPENDENT_METRICS}
BASELINE_SCHEMA = "noceas.bench_baseline.v1"
TRAJECTORY_SCHEMA = "noceas.bench_trajectory.v1"
COMPARE_SCHEMA = "noceas.bench_compare.v1"
PROFILE_PREFIX = "self_ms:"  # span self-time counters exported by the bench


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, capture_output=True, text=True, **kw)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def compiler_id(build_dir):
    """Compiler path + version from the CMake cache."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    cxx = None
    try:
        with open(cache) as f:
            for line in f:
                m = re.match(r"CMAKE_CXX_COMPILER:\w+=(.*)", line)
                if m:
                    cxx = m.group(1).strip()
    except OSError:
        return "unknown"
    if not cxx:
        return "unknown"
    try:
        first = run([cxx, "--version"]).stdout.splitlines()[0]
        return first
    except (OSError, subprocess.CalledProcessError):
        return cxx


def git_rev():
    try:
        return run(["git", "rev-parse", "--short", "HEAD"], cwd=REPO).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def fingerprint(build_dir):
    fp = {
        "cpu": cpu_model(),
        "cores": os.cpu_count(),
        "compiler": compiler_id(build_dir),
        "os": f"{platform.system()} {platform.release()}",
    }
    digest = hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:12]
    fp["id"] = digest
    return fp


def run_google_benchmark(build_dir, min_time, repetitions, bench_filter):
    bench = os.path.join(build_dir, "bench", "runtime_scaling")
    if not os.path.exists(bench):
        sys.exit(f"error: '{bench}' not built (configure with -DNOCEAS_BUILD_BENCH=ON)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out = tmp.name
    try:
        cmd = [
            bench,
            f"--benchmark_out={out}",
            "--benchmark_out_format=json",
            f"--benchmark_min_time={min_time}",
            f"--benchmark_repetitions={repetitions}",
        ]
        if bench_filter:
            cmd.append(f"--benchmark_filter={bench_filter}")
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        with open(out) as f:
            doc = json.load(f)
    finally:
        os.unlink(out)

    # Min over repetitions: the least noise-sensitive point statistic for a
    # regression gate (transient load only ever makes a run slower).  The
    # per-span self times ("self_ms:<path>" counters) and throughput rates
    # ("*_per_s" counters, e.g. the fleet merge's units_per_s) are taken
    # from the same repetition the kept timing came from, so the
    # attribution, the rate, and the timing describe one coherent run.
    timings = {}
    profile = {}
    rates = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        if b.get("time_unit") not in (None, "ms"):
            continue
        name = b.get("run_name", b["name"])
        ms = round(float(b["real_time"]), 4)
        if name in timings and ms >= timings[name]:
            continue
        timings[name] = ms
        spans = {k[len(PROFILE_PREFIX):]: round(float(v), 4)
                 for k, v in b.items() if k.startswith(PROFILE_PREFIX)}
        if spans:
            profile[name] = spans
        else:
            profile.pop(name, None)
        bench_rates = {k: round(float(v), 2) for k, v in b.items()
                       if k.endswith("_per_s") and isinstance(v, (int, float))}
        if bench_rates:
            rates[name] = bench_rates
        else:
            rates.pop(name, None)
    return timings, profile, rates


def deterministic_metrics(build_dir):
    """Counters/gauges of a fixed `noceas_cli schedule --metrics` run.

    These are exact (no timing noise): probe cache hit counts, commit
    counts, per-PE busy fractions.  Histogram aggregates are skipped — some
    observe wall-clock durations.
    """
    cli = os.path.join(build_dir, "tools", "noceas_cli")
    if not os.path.exists(cli):
        sys.exit(f"error: '{cli}' not built")
    with tempfile.TemporaryDirectory() as d:
        ctg, plat, met = (os.path.join(d, n) for n in ("g.txt", "p.txt", "m.json"))
        run([cli, "gen", "--category", "1", "--index", "0", "--ctg", ctg, "--platform", plat])
        subprocess.run(
            [cli, "schedule", "--ctg", ctg, "--platform", plat, "--scheduler", "eas",
             "--metrics", met],
            check=False, stdout=subprocess.DEVNULL)
        with open(met) as f:
            doc = json.load(f)
    out = {}
    for name, c in doc.get("counters", {}).items():
        out[name] = c["value"]
    for name, g in doc.get("gauges", {}).items():
        if "seconds" in name or "time" in name:
            continue
        out[name] = g["value"]
    return host_independent(out)


def flatten_campaign_aggregate(doc):
    """Flattens a noceas.campaign.aggregate.v1 document into exact metrics.

    Per scheduler: run count, miss rate, and the mean/p50/p90 of the energy
    and makespan distributions, keyed campaign.<scheduler>.<metric>.<stat>.
    All of these are deterministic (the campaign runner guarantees
    byte-identical aggregates for any thread count), so they ride the same
    exact-drift comparison as the scheduler counters.
    """
    flat = {}
    for s in doc.get("schedulers", []):
        prefix = f"campaign.{s['scheduler']}"
        flat[f"{prefix}.runs"] = s["runs"]
        flat[f"{prefix}.miss_rate"] = s["miss_rate"]
        for metric in ("energy", "makespan"):
            for stat in ("mean", "p50", "p90"):
                flat[f"{prefix}.{metric}.{stat}"] = s[metric][stat]
    return flat


def campaign_aggregates(build_dir):
    """Cross-run aggregates of a fixed mini-campaign (exact, no noise)."""
    cli = os.path.join(build_dir, "tools", "noceas_cli")
    if not os.path.exists(cli):
        sys.exit(f"error: '{cli}' not built")
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "campaign")
        run([cli, "campaign", "--out", out, "--categories", "1", "--seeds", "3",
             "--schedulers", "eas,edf", "--threads", "2"])
        doc = load_json(os.path.join(out, "aggregate.json"))
    return flatten_campaign_aggregate(doc)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def attribute_regression(base_spans, cur_spans):
    """Names the span whose exclusive self time grew the most.

    `base_spans` / `cur_spans` map call path -> self ms for one benchmark
    (a span missing on either side counts as 0 there).  Returns a
    suspect_span object, or None when either side lacks profile data or
    nothing grew — a regression without span growth is its own signal
    (time went somewhere uninstrumented).
    """
    if not base_spans or not cur_spans:
        return None
    best = None
    for path in sorted(set(base_spans) | set(cur_spans)):
        delta = cur_spans.get(path, 0.0) - base_spans.get(path, 0.0)
        if best is None or delta > best[1]:
            best = (path, delta)
    if best is None or best[1] <= 0:
        return None
    path, delta = best
    return {"path": path, "baseline_ms": base_spans.get(path, 0.0),
            "current_ms": cur_spans.get(path, 0.0), "delta_ms": round(delta, 4)}


# `noceas diff` hints for regressed benchmarks: which scheduler the bench
# family runs and which generated instance each DenseRange index maps to
# (catalog/platform match `noceas_cli gen` defaults, so the CLI reproduces
# the exact problem the bench timed).
MISS_BENCH_INSTANCES = {0: (2, 2), 1: (2, 4), 2: (2, 5), 3: (2, 8)}
MISS_BENCH_SCHEDULERS = {
    "BM_EasBase_MissBenchmarks": "eas-base",
    "BM_EasFull_MissBenchmarks": "eas",
    "BM_Edf_MissBenchmarks": "edf",
}


def diff_command(name, build_dir="build"):
    """Ready-to-run `noceas diff` invocation for a regressed benchmark.

    Answers "did behavior change, or only speed?": regenerate the exact
    instance the benchmark timed, then diff a live run of its scheduler
    against the decision stream recorded at the baseline revision (export
    one there with `noceas_cli schedule --decisions`).  An empty diff
    (exit 0) proves the regression is timing-only.  Returns None for
    benchmarks without a 1:1 scheduler-run mapping (e.g. repair ablations).
    """
    family, sep, arg = name.partition("/")
    if not sep or family not in MISS_BENCH_SCHEDULERS:
        return None
    try:
        category, index = MISS_BENCH_INSTANCES[int(arg)]
    except (KeyError, ValueError):
        return None
    cli = os.path.join(build_dir, "tools", "noceas_cli")
    ctg, plat = "/tmp/noceas_diff_g.txt", "/tmp/noceas_diff_p.txt"
    return (f"{cli} gen --category {category} --index {index}"
            f" --ctg {ctg} --platform {plat}"
            f" && {cli} diff --ctg {ctg} --platform {plat}"
            f" --scheduler-a {MISS_BENCH_SCHEDULERS[family]}"
            f" --decisions-b BASELINE_DECISIONS.jsonl")


def compare(baseline, bench, metrics, tolerance, comparable, profile=None, build_dir="build"):
    """Pure diff of a re-run against a recorded baseline.

    No I/O and no benchmark execution: `baseline` is the parsed baseline
    document, `bench` maps benchmark name -> current ms, `metrics` maps
    metric name -> current value, `profile` (optional) maps benchmark name
    -> {span path: self ms} for the current run.  Returns a
    `noceas.bench_compare.v1` report.  Verdict semantics:

      per benchmark: ok | improved | regression | missing | new
      overall:       fail  iff a regression on a comparable environment,
                     warn  for regressions on foreign hardware, missing /
                           new benchmarks, improvements, or metric drift,
                     pass  otherwise.

    A regression row carries a suspect_span naming the call path whose
    self time grew the most, when both the baseline and the current run
    have profile data for that benchmark.
    """
    base_profile = baseline.get("profile_self_ms", {})
    cur_profile = profile or {}
    rows = []
    for name, base_ms in sorted(baseline.get("bench_ms", {}).items()):
        if name not in bench:
            rows.append({"name": name, "baseline_ms": base_ms, "current_ms": None,
                         "delta_rel": None, "verdict": "missing"})
            continue
        cur = bench[name]
        rel = cur / base_ms - 1.0 if base_ms > 0 else 0.0
        if rel > tolerance:
            verdict = "regression"
        elif rel < -tolerance:
            verdict = "improved"
        else:
            verdict = "ok"
        row = {"name": name, "baseline_ms": base_ms, "current_ms": cur,
               "delta_rel": round(rel, 4), "verdict": verdict}
        if verdict == "regression":
            row["suspect_span"] = attribute_regression(
                base_profile.get(name), cur_profile.get(name))
            cmd = diff_command(name, build_dir)
            if cmd:
                row["diff_command"] = cmd
        rows.append(row)
    for name in sorted(set(bench) - set(baseline.get("bench_ms", {}))):
        rows.append({"name": name, "baseline_ms": None, "current_ms": bench[name],
                     "delta_rel": None, "verdict": "new"})

    drift = []
    for name, base_v in sorted(host_independent(baseline.get("metrics", {})).items()):
        cur = metrics.get(name)
        if cur != base_v:
            drift.append({"name": name, "baseline": base_v, "current": cur})

    regressions = sum(1 for r in rows if r["verdict"] == "regression")
    attention = sum(1 for r in rows if r["verdict"] in ("improved", "missing", "new"))
    if regressions and comparable:
        overall = "fail"
    elif regressions or attention or drift:
        overall = "warn"
    else:
        overall = "pass"
    return {
        "schema": COMPARE_SCHEMA,
        "comparable": comparable,
        "tolerance": tolerance,
        "verdict": overall,
        "regressions": regressions,
        "benchmarks": rows,
        "metric_drift": drift,
    }


def cmd_record(args):
    fp = fingerprint(args.build_dir)
    print(f"environment: {fp['cpu']} · {fp['cores']} cores · {fp['compiler']}")
    print("running runtime_scaling ...")
    bench, profile, rates = run_google_benchmark(args.build_dir, args.min_time,
                                                 args.repetitions, args.filter)
    print(f"  {len(bench)} benchmark timings, {len(profile)} with span self-times, "
          f"{len(rates)} with throughput rates")
    metrics = deterministic_metrics(args.build_dir)
    print(f"  {len(metrics)} deterministic metrics")
    campaign = campaign_aggregates(args.build_dir)
    metrics.update(campaign)
    print(f"  {len(campaign)} campaign aggregates")

    baseline = {
        "schema": BASELINE_SCHEMA,
        "fingerprint": fp,
        "rev": git_rev(),
        "bench_args": {"min_time": args.min_time, "repetitions": args.repetitions},
        "bench_ms": bench,
        "bench_rates": rates,
        "profile_self_ms": profile,
        "metrics": metrics,
    }
    os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
    with open(args.baseline, "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.relpath(args.baseline, REPO)}")

    # Append a snapshot to the perf trajectory.
    if os.path.exists(args.trajectory):
        traj = load_json(args.trajectory)
    else:
        traj = {"schema": TRAJECTORY_SCHEMA, "entries": []}
    traj["entries"].append({"rev": baseline["rev"], "fingerprint": fp["id"],
                            "bench_ms": bench, "bench_rates": rates,
                            "profile_self_ms": profile})
    with open(args.trajectory, "w") as f:
        json.dump(traj, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"appended snapshot {baseline['rev']} to {os.path.relpath(args.trajectory, REPO)}")
    return 0


def print_report(report, out=sys.stdout):
    """Render a compare() report as the human-readable check table."""
    for row in report["benchmarks"]:
        v = row["verdict"]
        if v == "missing":
            print(f"  MISSING  {row['name']} (in baseline, not in this run)", file=out)
        elif v == "new":
            print(f"  NEW      {row['name']} = {row['current_ms']:.2f} ms "
                  "(not in baseline)", file=out)
        else:
            tag = {"ok": "ok", "regression": "REGRESSION",
                   "improved": "improved (consider re-recording the baseline)"}[v]
            print(f"  {row['baseline_ms']:10.2f} -> {row['current_ms']:10.2f} ms  "
                  f"{row['delta_rel']:+7.1%}  {row['name']}  {tag}", file=out)
            suspect = row.get("suspect_span")
            if suspect:
                print(f"             suspect: {suspect['path']} self "
                      f"{suspect['baseline_ms']:.2f} -> {suspect['current_ms']:.2f} ms "
                      f"(+{suspect['delta_ms']:.2f} ms)", file=out)
            cmd = row.get("diff_command")
            if cmd:
                print(f"             behavioral diff (record the -b side at the"
                      " baseline rev with 'noceas_cli schedule --decisions'):",
                      file=out)
                print(f"               {cmd}", file=out)
    for d in report["metric_drift"]:
        print(f"  metric drift: {d['name']} {d['baseline']} -> {d['current']}", file=out)
    if report["metric_drift"]:
        print(f"{len(report['metric_drift'])} deterministic metric(s) drifted — fine "
              "for a deliberate algorithm change; re-record the baseline to "
              "acknowledge", file=out)
    if report["verdict"] == "fail":
        print(f"{report['regressions']} benchmark(s) regressed beyond "
              f"{report['tolerance']:.0%}", file=out)
    elif report["comparable"]:
        print("bench check passed" if report["verdict"] == "pass"
              else f"bench check: {report['verdict']}", file=out)
    else:
        print("bench check done (not gated)", file=out)


def cmd_check(args):
    # With --json - the report owns stdout; route the table to stderr.
    text_out = sys.stderr if args.json == "-" else sys.stdout
    if not os.path.exists(args.baseline):
        print(f"no baseline at {os.path.relpath(args.baseline, REPO)}; "
              "run 'tools/bench_compare.py record' first", file=text_out)
        return 0
    baseline = load_json(args.baseline)
    if baseline.get("schema") != BASELINE_SCHEMA:
        sys.exit(f"error: unexpected baseline schema {baseline.get('schema')!r}")
    fp = fingerprint(args.build_dir)
    comparable = fp["id"] == baseline["fingerprint"]["id"]
    if not comparable:
        print(f"note: environment differs from baseline ({fp['id']} vs "
              f"{baseline['fingerprint']['id']}, recorded on "
              f"{baseline['fingerprint']['cpu']}); timings reported but not gated",
              file=text_out)

    bench_args = baseline.get("bench_args", {})
    bench, profile, _rates = run_google_benchmark(
        args.build_dir,
        bench_args.get("min_time", args.min_time),
        bench_args.get("repetitions", args.repetitions),
        args.filter,
    )
    metrics = deterministic_metrics(args.build_dir)
    metrics.update(campaign_aggregates(args.build_dir))

    report = compare(baseline, bench, metrics, args.tolerance, comparable,
                     profile, build_dir=args.build_dir)
    report["baseline_rev"] = baseline.get("rev", "unknown")
    report["rev"] = git_rev()
    print_report(report, out=text_out)

    if args.json:
        if args.json == "-":
            json.dump(report, sys.stdout, indent=1, sort_keys=True)
            sys.stdout.write("\n")
        else:
            with open(args.json, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"wrote {os.path.relpath(args.json, REPO)}", file=text_out)

    return 2 if report["verdict"] == "fail" else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", nargs="?", choices=["record", "check"])
    ap.add_argument("--record", action="store_true", help="alias for the record mode")
    ap.add_argument("--check", action="store_true", help="alias for the check mode")
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    ap.add_argument("--baseline",
                    default=os.path.join(REPO, "bench", "baselines", "runtime_scaling.json"))
    ap.add_argument("--trajectory", default=os.path.join(REPO, "BENCH_runtime_scaling.json"))
    ap.add_argument("--filter", default="", help="--benchmark_filter regex")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="check mode: also write a noceas.bench_compare.v1 "
                         "report to PATH ('-' for stdout)")
    ap.add_argument("--min-time", default="0.05", help="--benchmark_min_time per benchmark")
    ap.add_argument("--repetitions", type=int, default=3)
    ap.add_argument("--tolerance", type=float, default=0.35,
                    help="relative timing tolerance before flagging (default 35%%)")
    args = ap.parse_args()

    mode = args.mode or ("record" if args.record else "check" if args.check else None)
    if mode is None:
        ap.error("choose a mode: record | check (or --record / --check)")
    return cmd_record(args) if mode == "record" else cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
