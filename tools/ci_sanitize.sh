#!/usr/bin/env bash
# Sanitizer CI for the scheduler library.
#
# Builds the full test suite twice under NOCEAS_SANITIZE and runs tier-1
# ctest under each instrumentation:
#   1. address,undefined — whole suite (memory errors, UB in the schedulers),
#                          including the seeded parser mutation fuzz runs
#                          (ParserFuzz in tests/json_test.cpp, since the
#                          JSON reader walks raw pointers, and TextFuzz in
#                          tests/text_scan_test.cpp over the CTG, platform
#                          and schedule text readers)
#   2. thread            — the probe/thread-pool/obs tests, which exercise
#                          the parallel F(i,k) evaluation path of ProbeEngine
#                          and multi-lane trace emission
#
# Afterwards:
#   - audit-replay stage (under the ASan/UBSan build): records a decision
#     provenance stream with the CLI, replays it with `audit --replay`, and
#     runs `validate` on the exported schedule
#   - analyze smoke stage (same build): `analyze --json` for every scheduler,
#     asserting the noceas.analysis.v1 identities (critical path length ==
#     makespan, exact wait decomposition)
#   - campaign smoke stage (same build): a mini-campaign under ASan/UBSan,
#     asserting the manifest/aggregate invariants (every run ok, byte-
#     identical reruns across thread counts, bit-exact mean reconciliation)
#     and that the dashboard renders
#   - telemetry stage (ASan/UBSan build, plus a TSan'd live campaign): the
#     progress/timeseries streams and the stall watchdog end to end — an
#     artificially slowed unit (NOCEAS_TEST_STALL_UNIT/_MS) must produce
#     exactly one stall event naming that unit and its open span path, the
#     streams must be schema-valid with one start + one finish per unit,
#     and manifest/aggregate/dashboard must be byte-identical with
#     sampling on vs off
#   - shard stage (same build): a 3-shard mini-fleet under ASan/UBSan —
#     `campaign --shard i/3` three times plus `campaign merge` must produce
#     manifest/aggregate/dashboard byte-identical to the 1-process campaign,
#     the merged aggregate must reconcile bit-exactly with the merged
#     manifest rows, and a stall injected into one shard must be localized
#     to that shard's lane of the fleet timeline
#   - diff stage (same build): the first-divergence engine under ASan/UBSan —
#     six-scheduler self-diff must be empty (exit 0), a decision stream with
#     one tampered mid-stream place record must be localized to exactly that
#     seq (exit 1), and the campaign-mode self-diff across thread counts must
#     be empty
#   - repair-replay stage (same build): schedules an eas run twice — with
#     incremental suffix evaluation and under the NOCEAS_REPAIR_FULL_REBUILD
#     escape hatch — and requires byte-identical schedules/decision streams
#   - profile smoke stage (same build): `schedule --profile` under
#     ASan/UBSan, python-asserting the noceas.profile.v1 identities (self
#     times sum to the root total, children nest inside parents, folded
#     lines mirror the JSON) and the campaign fleet merge's thread-count
#     byte-identity
#   - observability smoke gate (plain build): an attached tracer — and the
#     span-profiler spine — must leave schedules bit-identical and cost
#     < 5% runtime against an identically-probing reference
#   - perf-baseline gates: tools/bench_compare.py check — hard on the four
#     repair hot-path benches (BM_EasFull_MissBenchmarks/0-3) and the four
#     bound-pruned EDF benches (BM_Edf_MissBenchmarks/0-3), soft elsewhere;
#     regressions are attributed to the span whose self time grew
#
# Usage: tools/ci_sanitize.sh [build-dir-prefix]   (default: build-san)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-san}"

configure_and_test() {
  local dir="$1" sanitize="$2" test_filter="${3:-}"
  echo "==> [$sanitize] configuring $dir"
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DNOCEAS_SANITIZE="$sanitize" \
    -DNOCEAS_BUILD_BENCH=OFF \
    -DNOCEAS_BUILD_EXAMPLES=OFF >/dev/null
  echo "==> [$sanitize] building"
  cmake --build "$dir" -j "$(nproc)" >/dev/null
  echo "==> [$sanitize] testing ${test_filter:+(filter: $test_filter)}"
  if [[ -n "$test_filter" ]]; then
    ctest --test-dir "$dir" --output-on-failure -R "$test_filter"
  else
    ctest --test-dir "$dir" --output-on-failure
  fi
}

# ASan+UBSan over the whole suite.
configure_and_test "${prefix}-asan" "address,undefined"

# TSan over the tests that drive the thread pool / parallel probe path, the
# parallel repair-wave evaluation (Repair/Timing/SuffixRebuild lanes), and
# the multi-lane tracer / lock-free metrics (obs_test).
# halt_on_error makes a race fail the ctest run instead of just logging.
TSAN_OPTIONS="halt_on_error=1" \
  configure_and_test "${prefix}-tsan" "thread" "ProbeCache|ProbeEngine|ThreadPool|TentativeTables|list_common|Metrics|Trace|Repair|Timing|SuffixRebuild|BudgetRetries|LazyProbes|Progress|Watchdog|Timeseries"

# Audit-replay stage, reusing the ASan/UBSan binaries: record a decision
# stream end to end through the CLI, replay-verify it, and validate the
# exported schedule.  Any drift between the schedulers' bookkeeping and the
# commit machinery (or a memory bug in the audit path itself) fails here.
audit_dir="$(mktemp -d)"
trap 'rm -rf "$audit_dir"' EXIT
cli="${prefix}-asan/tools/noceas_cli"
echo "==> [audit-replay] recording + replaying decision streams"
"$cli" gen --category 2 --index 2 --ctg "$audit_dir/g.txt" --platform "$audit_dir/p.txt" >/dev/null
for sched in eas edf dls greedy map; do
  "$cli" schedule --ctg "$audit_dir/g.txt" --platform "$audit_dir/p.txt" \
    --scheduler "$sched" --decisions "$audit_dir/d.jsonl" \
    --schedule-out "$audit_dir/s.txt" >/dev/null || true  # non-zero = deadline miss
  "$cli" audit --replay --decisions "$audit_dir/d.jsonl" \
    --ctg "$audit_dir/g.txt" --platform "$audit_dir/p.txt" >/dev/null
  "$cli" validate --schedule "$audit_dir/s.txt" \
    --ctg "$audit_dir/g.txt" --platform "$audit_dir/p.txt" >/dev/null
  echo "    $sched: replay + validate OK"
done

# Repair-replay stage (same ASan/UBSan binaries): the incremental suffix
# evaluation against the NOCEAS_REPAIR_FULL_REBUILD escape hatch, end to end
# through the CLI.  Exported schedules AND decision streams (both fully
# deterministic) must be byte-identical — any drift in the reuse machinery,
# the bounded aborts, or the accept order fails here under sanitizers.
echo "==> [repair-replay] incremental vs full-rebuild escape hatch"
"$cli" gen --category 2 --index 4 --ctg "$audit_dir/g2.txt" --platform "$audit_dir/p2.txt" >/dev/null
"$cli" schedule --ctg "$audit_dir/g2.txt" --platform "$audit_dir/p2.txt" \
  --scheduler eas --decisions "$audit_dir/d_inc.jsonl" \
  --schedule-out "$audit_dir/s_inc.txt" >/dev/null || true  # non-zero = deadline miss
NOCEAS_REPAIR_FULL_REBUILD=1 \
  "$cli" schedule --ctg "$audit_dir/g2.txt" --platform "$audit_dir/p2.txt" \
  --scheduler eas --decisions "$audit_dir/d_full.jsonl" \
  --schedule-out "$audit_dir/s_full.txt" >/dev/null || true
cmp "$audit_dir/s_inc.txt" "$audit_dir/s_full.txt" \
  || { echo "FAIL: incremental repair schedule differs from full rebuild"; exit 1; }
cmp "$audit_dir/d_inc.jsonl" "$audit_dir/d_full.jsonl" \
  || { echo "FAIL: incremental repair decision stream differs from full rebuild"; exit 1; }
"$cli" audit --replay --decisions "$audit_dir/d_inc.jsonl" \
  --ctg "$audit_dir/g2.txt" --platform "$audit_dir/p2.txt" >/dev/null
echo "    incremental == full rebuild (schedule + decision stream), replay OK"

# Analyze smoke stage (same ASan/UBSan binaries): run the post-hoc schedule
# analytics for every scheduler and check the report's load-bearing
# identities — schema, a complete critical path whose length equals the
# makespan, and the exact per-task wait decomposition.
echo "==> [analyze] post-hoc analytics under ASan/UBSan"
for sched in eas eas-base edf dls greedy map; do
  "$cli" analyze --ctg "$audit_dir/g.txt" --platform "$audit_dir/p.txt" \
    --scheduler "$sched" --json "$audit_dir/a.json" >/dev/null
  python3 - "$audit_dir/a.json" "$sched" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
sched = sys.argv[2]
assert doc["schema"] == "noceas.analysis.v1", doc.get("schema")
cp = doc["critical_path"]
assert cp["complete"], f"{sched}: incomplete critical path"
assert cp["length"] == doc["makespan"], (sched, cp["length"], doc["makespan"])
for t in doc["tasks"]:
    waits = t["dep_wait"] + t["link_wait"] + t["pe_wait"]
    assert waits == t["start"] - t["release"], (sched, t)
PY
  echo "    $sched: analyze OK"
done
# The exported-schedule route too, with the decision stream attached
# (s.txt / d.jsonl are the last scheduler's from the audit loop above).
"$cli" analyze --ctg "$audit_dir/g.txt" --platform "$audit_dir/p.txt" \
  --schedule "$audit_dir/s.txt" --decisions "$audit_dir/d.jsonl" \
  --json "$audit_dir/a.json" >/dev/null
echo "    exported schedule + decisions: analyze OK"

# Campaign smoke stage (same ASan/UBSan binaries): run a small fleet twice —
# parallel and serial — and hold the campaign subsystem to its contract:
# every run succeeds, manifest/aggregate/dashboard are byte-identical across
# thread counts, and the aggregate means reconcile bit-exactly with the
# manifest's outcome rows.
echo "==> [campaign] mini-campaign under ASan/UBSan"
"$cli" campaign --out "$audit_dir/camp" --categories 1 --seeds 3 \
  --schedulers eas,edf --threads 4 >/dev/null
"$cli" campaign --out "$audit_dir/camp1" --categories 1 --seeds 3 \
  --schedulers eas,edf --threads 1 >/dev/null
for f in manifest.json aggregate.json dashboard.html; do
  cmp "$audit_dir/camp/$f" "$audit_dir/camp1/$f" \
    || { echo "FAIL: $f differs across thread counts"; exit 1; }
done
python3 - "$audit_dir/camp" <<'PY'
import json, os, sys
d = sys.argv[1]
with open(os.path.join(d, "manifest.json")) as f:
    manifest = json.load(f)
with open(os.path.join(d, "aggregate.json")) as f:
    aggregate = json.load(f)
assert manifest["schema"] == "noceas.campaign.v1"
assert aggregate["schema"] == "noceas.campaign.aggregate.v1"
runs = manifest["runs"]
assert len(runs) == 6 and all(r["ok"] for r in runs), runs
# Bit-exact reconciliation: the aggregate mean is the plain sum of the
# manifest rows in order, divided by the count.
for s in aggregate["schedulers"]:
    mine = [r for r in runs if r["scheduler"] == s["scheduler"]]
    assert s["runs"] == len(mine)
    total = 0.0
    for r in mine:
        total += r["energy"]
    assert s["energy"]["mean"] == total / len(mine), s["scheduler"]
with open(os.path.join(d, "dashboard.html")) as f:
    html = f.read()
assert "</html>" in html and "<svg" in html
PY
echo "    campaign: determinism + reconciliation + dashboard OK"

# Live-telemetry stage.  Three contracts, end to end through the CLI:
#  1. Segregation: the deterministic artifacts are byte-identical with the
#     sampler + progress stream + watchdog enabled vs fully disabled
#     (telemetry only ever adds files; camp/ above is the disabled side).
#  2. Stall localization: a unit artificially slowed via the span-spine
#     test hook must produce exactly one stall event naming that unit and
#     an open span path ending in the hook's span.
#  3. Stream validity: progress.jsonl carries one start + one finish per
#     unit with a monotone done counter, timeseries.jsonl carries schema'd
#     samples, and `timeseries summarize` folds both.
# The watchdog/sampler threads also get a TSan pass: the telemetry unit
# tests run under the thread-sanitized suite above, and a live sampled +
# watchdogged mini-campaign runs under the TSan binaries here.
echo "==> [telemetry] byte-identity with sampling on vs off"
"$cli" campaign --out "$audit_dir/campT" --categories 1 --seeds 3 \
  --schedulers eas,edf --threads 4 --progress --timeseries \
  --telemetry-interval-ms 50 >/dev/null
for f in manifest.json aggregate.json dashboard.html; do
  cmp "$audit_dir/camp/$f" "$audit_dir/campT/$f" \
    || { echo "FAIL: $f differs with telemetry enabled"; exit 1; }
done
[[ -s "$audit_dir/campT/progress.jsonl" && -s "$audit_dir/campT/timeseries.jsonl" \
   && -s "$audit_dir/campT/timeline.html" ]] \
  || { echo "FAIL: telemetry streams missing from campT"; exit 1; }
echo "    manifest/aggregate/dashboard identical; streams + timeline present"

echo "==> [telemetry] injected stall localization under ASan/UBSan"
stall_unit="cat1-i0-s3-edf"  # the last unit in expansion order
NOCEAS_TEST_STALL_UNIT="$stall_unit" NOCEAS_TEST_STALL_MS=8000 \
  "$cli" campaign --out "$audit_dir/campS" --categories 1 --seeds 3 \
  --schedulers eas,edf --threads 2 --progress --timeseries \
  --telemetry-interval-ms 100 --stall-multiplier 2 --stall-floor-ms 500 \
  >/dev/null 2>"$audit_dir/campS_stderr.txt"
python3 - "$audit_dir/campS" "$stall_unit" <<'PY'
import json, os, sys
d, stall_unit = sys.argv[1], sys.argv[2]
lines = open(os.path.join(d, "progress.jsonl")).read().splitlines()
header = json.loads(lines[0])
assert header["schema"] == "noceas.progress.v1", header
total = header["total"]
starts, finishes, stalls, prev_done = {}, {}, [], 0
for line in lines[1:]:
    ev = json.loads(line)
    if ev["ev"] == "start":
        starts[ev["unit"]] = starts.get(ev["unit"], 0) + 1
    elif ev["ev"] in ("finish", "error"):
        finishes[ev["unit"]] = finishes.get(ev["unit"], 0) + 1
        assert ev["done"] >= prev_done, "done counter went backwards"
        prev_done = ev["done"]
    elif ev["ev"] == "stall":
        stalls.append(ev)
assert len(starts) == total and all(n == 1 for n in starts.values()), starts
assert len(finishes) == total and all(n == 1 for n in finishes.values()), finishes
assert prev_done == total
# Exactly one stall, naming the slowed unit, localized to the hook's span.
assert len(stalls) == 1, stalls
assert stalls[0]["unit"] == stall_unit, stalls[0]
assert any("test.stall_hook" in s for s in stalls[0]["spans"]), stalls[0]
assert stalls[0]["open_ms"] >= stalls[0]["deadline_ms"] > 0
ts_lines = open(os.path.join(d, "timeseries.jsonl")).read().splitlines()
assert json.loads(ts_lines[0])["schema"] == "noceas.timeseries.v1"
assert len(ts_lines) >= 2 and all("series" in json.loads(l) for l in ts_lines[1:])
print("    stall localized to %s (spans: %s); streams valid"
      % (stall_unit, stalls[0]["spans"]))
PY
"$cli" timeseries summarize --in "$audit_dir/campS/progress.jsonl" \
  --json "$audit_dir/campS_progress_summary.json" >/dev/null
"$cli" timeseries summarize --in "$audit_dir/campS/timeseries.jsonl" >/dev/null
grep -q '"stalls":1' "$audit_dir/campS_progress_summary.json" \
  || { echo "FAIL: progress summary does not count the stall"; exit 1; }
echo "    timeseries summarize: both streams fold OK"

echo "==> [telemetry] sampled + watchdogged mini-campaign under TSan"
TSAN_OPTIONS="halt_on_error=1" \
  "${prefix}-tsan/tools/noceas_cli" campaign --out "$audit_dir/campTsan" \
  --categories 1 --seeds 2 --schedulers eas,edf --threads 4 \
  --progress --timeseries --telemetry-interval-ms 20 >/dev/null
echo "    TSan live campaign clean"

# Shard stage (same ASan/UBSan binaries): fleet scale-out end to end.
#  1. Byte-identity: a 3-shard fleet (mixed per-shard thread counts) merged
#     with `campaign merge` must reproduce the 1-process campaign's
#     manifest/aggregate/dashboard byte for byte (camp1 above is the
#     1-process reference for the same spec).
#  2. Reconciliation: the merged aggregate's means must be the plain
#     unit-order sum of the merged manifest rows — bit-exact.
#  3. Fleet telemetry: a stall injected into one shard must surface in the
#     merged fleet timeline inside that shard's lane, not anywhere else.
echo "==> [shard] 3-shard fleet merge under ASan/UBSan"
for i in 0 1 2; do
  "$cli" campaign --out "$audit_dir/fleet/s$i" --categories 1 --seeds 3 \
    --schedulers eas,edf --threads $((1 + i % 2)) --shard "$i/3" >/dev/null
done
"$cli" campaign merge --out "$audit_dir/fleet/merged" \
  --shards "$audit_dir/fleet/s0,$audit_dir/fleet/s1,$audit_dir/fleet/s2" >/dev/null
for f in manifest.json aggregate.json dashboard.html; do
  cmp "$audit_dir/fleet/merged/$f" "$audit_dir/camp1/$f" \
    || { echo "FAIL: merged $f differs from the 1-process campaign"; exit 1; }
done
python3 - "$audit_dir/fleet/merged" <<'PY'
import json, os, sys
d = sys.argv[1]
with open(os.path.join(d, "manifest.json")) as f:
    manifest = json.load(f)
with open(os.path.join(d, "aggregate.json")) as f:
    aggregate = json.load(f)
runs = manifest["runs"]
assert len(runs) == 6 and all(r["ok"] for r in runs), runs
for s in aggregate["schedulers"]:
    mine = [r for r in runs if r["scheduler"] == s["scheduler"]]
    assert s["runs"] == len(mine)
    total = 0.0
    for r in mine:
        total += r["energy"]
    assert s["energy"]["mean"] == total / len(mine), s["scheduler"]
PY
echo "    3-shard merge byte-identical to 1-process; aggregate reconciles"

# A 12-unit fleet with telemetry; shard 1 owns global units 1,4,7,10 and
# unit 10 (cat1-i0-s6-eas) is artificially stalled via the span-spine hook.
echo "==> [shard] injected stall localized to its fleet-timeline lane"
stall_unit="cat1-i0-s6-eas"
for i in 0 1 2; do
  env $([ "$i" -eq 1 ] && echo "NOCEAS_TEST_STALL_UNIT=$stall_unit NOCEAS_TEST_STALL_MS=3000") \
    "$cli" campaign --out "$audit_dir/fleetS/s$i" --categories 1 --seeds 6 \
    --schedulers eas,edf --shard "$i/3" --progress --timeseries \
    --telemetry-interval-ms 100 --stall-multiplier 2 --stall-floor-ms 400 \
    >/dev/null
done
"$cli" campaign merge --out "$audit_dir/fleetS/merged" \
  --shards "$audit_dir/fleetS/s0,$audit_dir/fleetS/s1,$audit_dir/fleetS/s2" \
  > "$audit_dir/fleetS_merge.txt"
grep -q "1 stall event" "$audit_dir/fleetS_merge.txt" \
  || { echo "FAIL: merge summary does not count the injected stall"; \
       cat "$audit_dir/fleetS_merge.txt"; exit 1; }
python3 - "$audit_dir/fleetS/merged" "$stall_unit" <<'PY'
import re, sys
html = open(sys.argv[1] + "/timeline.html").read()
stall_unit = sys.argv[2]
# One lane group per shard, in shard order; the stall marker must sit in
# shard 1's group and nowhere else.
lanes = re.split(r"<g ", html)[1:]
assert len(lanes) == 3, "expected 3 fleet lanes, got %d" % len(lanes)
hits = ["stall: " + stall_unit in lane for lane in lanes]
assert hits == [False, True, False], hits
# The merged progress stream kept all three segment headers.
progress = open(sys.argv[1] + "/progress.jsonl").read()
assert progress.count('"schema":"noceas.progress.v1"') == 3
print("    stall localized to the shard 1 lane; 3 progress segments kept")
PY
"$cli" timeseries summarize --in "$audit_dir/fleetS/merged/progress.jsonl" \
  --json "$audit_dir/fleetS_summary.json" >/dev/null
python3 - "$audit_dir/fleetS_summary.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["total"] == 12 and s["finishes"] == 12, s
assert s["stalls"] == 1, s
PY
echo "    concatenated progress stream folds: 12/12 finished, 1 stall"

# Differential-observability stage (same ASan/UBSan binaries): the diff
# engine's core contracts, end to end through the CLI.
#  - Self-diff is empty: every scheduler diffed against a second live run of
#    itself must report an empty diff and exit 0.
#  - Tamper localization: flipping the chosen PE of one place record in the
#    middle of a recorded decision stream must be pinpointed to exactly that
#    seq as a choice divergence, with exit 1.
#  - Campaign self-diff: the two thread-count variants above are
#    byte-identical, so the campaign-mode diff must also come back empty.
echo "==> [diff] first-divergence engine under ASan/UBSan"
for sched in eas eas-base edf dls greedy map; do
  "$cli" diff --ctg "$audit_dir/g.txt" --platform "$audit_dir/p.txt" \
    --scheduler-a "$sched" --scheduler-b "$sched" >/dev/null \
    || { echo "FAIL: $sched self-diff is not empty"; exit 1; }
  echo "    $sched: self-diff empty"
done
"$cli" schedule --ctg "$audit_dir/g.txt" --platform "$audit_dir/p.txt" \
  --scheduler eas --decisions "$audit_dir/d_ref.jsonl" >/dev/null || true
tamper_seq="$(python3 - "$audit_dir/d_ref.jsonl" "$audit_dir/d_tampered.jsonl" <<'PY'
import json, sys
out, places, seq = [], 0, None
for line in open(sys.argv[1]).read().splitlines():
    rec = json.loads(line)
    if seq is None and rec.get("type") == "place":
        places += 1
        if places == 8:  # a mid-stream decision, well past the header
            rec["pe"] = (rec["pe"] + 1) % 16
            seq = rec["seq"]
    out.append(json.dumps(rec, separators=(",", ":")))
assert seq is not None, "stream has fewer than 8 place records"
with open(sys.argv[2], "w") as f:
    f.write("\n".join(out) + "\n")
print(seq)
PY
)"
set +e
"$cli" diff --decisions-a "$audit_dir/d_ref.jsonl" \
  --decisions-b "$audit_dir/d_tampered.jsonl" > "$audit_dir/diff_out.txt"
diff_rc=$?
set -e
[[ $diff_rc -eq 1 ]] \
  || { echo "FAIL: tampered diff exited $diff_rc (want 1)"; cat "$audit_dir/diff_out.txt"; exit 1; }
grep -q "first divergence at seq $tamper_seq " "$audit_dir/diff_out.txt" \
  || { echo "FAIL: diff did not localize tampered seq $tamper_seq"; cat "$audit_dir/diff_out.txt"; exit 1; }
grep -q "choice" "$audit_dir/diff_out.txt" \
  || { echo "FAIL: tampered PE not classified as a choice divergence"; cat "$audit_dir/diff_out.txt"; exit 1; }
echo "    tampered place record localized to seq $tamper_seq (choice), exit 1"
"$cli" diff --campaign-a "$audit_dir/camp" --campaign-b "$audit_dir/camp1" >/dev/null \
  || { echo "FAIL: campaign self-diff is not empty"; exit 1; }
echo "    campaign self-diff (threads 4 vs 1): empty"

# Profile smoke stage (same ASan/UBSan binaries): the span-statistics
# profiler end to end through the CLI, held to its integer identities —
# every call path's exclusive self time sums to the root spans' total,
# children nest inside their parents, and the folded export mirrors the
# JSON's positive self times.
echo "==> [profile] span-stats profiler under ASan/UBSan"
"$cli" schedule --ctg "$audit_dir/g.txt" --platform "$audit_dir/p.txt" \
  --scheduler eas --profile "$audit_dir/prof.json" \
  --profile-folded "$audit_dir/prof.folded" >/dev/null || true  # non-zero = deadline miss
python3 - "$audit_dir/prof.json" "$audit_dir/prof.folded" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "noceas.profile.v1", doc.get("schema")
assert doc["lanes"] >= 1 and doc["records"], "empty profile"
shapes = {r["path"]: r for r in doc["records"]}
timings = {r["path"]: r for r in doc["timings"]["records"]}
assert set(timings) == set(shapes)
# Self-time identity: exclusive self times sum exactly to the root total,
# which fits inside the run's wall clock.
roots = sum(t["total_ns"] for p, t in timings.items() if shapes[p]["depth"] == 0)
selfs = sum(t["self_ns"] for t in timings.values())
assert selfs == roots, (selfs, roots)
assert 0 < roots <= doc["timings"]["wall_ns"]
# Nesting: a record's direct children never exceed its inclusive total.
for path, t in timings.items():
    kids = sum(c["total_ns"] for p2, c in timings.items()
               if p2.startswith(path + ";")
               and shapes[p2]["depth"] == shapes[path]["depth"] + 1)
    assert kids <= t["total_ns"], (path, kids, t["total_ns"])
# Folded lines mirror the JSON's positive self times exactly.
folded = {}
with open(sys.argv[2]) as f:
    for line in f:
        p, w = line.rstrip("\n").rsplit(" ", 1)
        folded[p] = int(w)
assert folded == {p: t["self_ns"] for p, t in timings.items() if t["self_ns"] > 0}
print("    profile: identities + folded export OK")
PY
# Fleet merge determinism: profile *shapes* byte-identical across thread
# counts (durations live in profile_timings.json, outside the contract).
"$cli" campaign --out "$audit_dir/campP" --categories 1 --seeds 2 \
  --schedulers eas,edf --threads 4 --profile >/dev/null
"$cli" campaign --out "$audit_dir/campP1" --categories 1 --seeds 2 \
  --schedulers eas,edf --threads 1 --profile >/dev/null
cmp "$audit_dir/campP/profile.json" "$audit_dir/campP1/profile.json" \
  || { echo "FAIL: fleet profile shapes differ across thread counts"; exit 1; }
echo "    profile: campaign fleet merge deterministic across threads"

# Observability smoke gate: tracing and span profiling must not change
# schedules and must stay within the 5% overhead budget against an
# identically-probing (eager) reference (docs/OBSERVABILITY.md).  Built
# without sanitizers — the budget is a statement about the production build.
smoke="${prefix}-smoke"
echo "==> [obs-smoke] configuring $smoke"
cmake -B "$smoke" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "==> [obs-smoke] building"
cmake --build "$smoke" -j "$(nproc)" --target runtime_scaling --target noceas_cli >/dev/null
echo "==> [obs-smoke] running"
"$smoke"/bench/runtime_scaling --obs-smoke

# Perf-baseline gates: compare against bench/baselines/*.json.
#  - Hard gate on the four repair hot-path benchmarks (the 10x win this
#    library promises) and the four EDF benchmarks (bound-pruned probing,
#    DESIGN.md §11.5): a regression on any BM_EasFull_MissBenchmarks/0-3 or
#    BM_Edf_MissBenchmarks/0-3 fails CI when the environment fingerprint
#    matches the baseline's
#    (check exits 0, "not gated", on foreign hardware).  A regression row
#    names the span whose self time grew (the bench exports per-phase
#    self_ms counters).
#  - Soft gate over the full suite — timings on shared CI boxes are too
#    noisy to block on wholesale.
echo "==> [bench-compare] hard gate on the repair hot path and EDF"
python3 tools/bench_compare.py check --build-dir "$smoke" \
  --filter 'BM_(EasFull|Edf)_MissBenchmarks/(0|1|2|3)$'
echo "==> [bench-compare] soft gate (full suite)"
python3 tools/bench_compare.py check --build-dir "$smoke" \
  || echo "warn: bench_compare flagged a regression (soft gate, not failing CI)"

echo "==> sanitize CI passed"
