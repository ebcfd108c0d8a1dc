#!/bin/sh
# Asserts the machine-readable exit-code contract of noceas_cli:
#   0  success
#   1  run failed (unreadable input, deadline misses, failed campaign runs)
#   2  bad invocation (unknown command/flag, missing required flag)
#   3  validation / replay mismatch
#   4  incompatible shard set (campaign merge)
#
# Usage: cli_exit_codes.sh /path/to/noceas_cli
# Registered as a ctest case; any unexpected exit code fails the script.
set -u

cli="${1:?usage: cli_exit_codes.sh /path/to/noceas_cli}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
failures=0

expect() {
  want="$1"
  label="$2"
  shift 2
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $label: expected exit $want, got $got (cmd: $*)" >&2
    failures=$((failures + 1))
  else
    echo "ok: $label -> $got"
  fi
}

# --- fixtures -----------------------------------------------------------
"$cli" gen --category 1 --index 0 --ctg "$tmp/g.txt" --platform "$tmp/p.txt" >/dev/null
expect 0 "schedule + export" \
  "$cli" schedule --ctg "$tmp/g.txt" --platform "$tmp/p.txt" --scheduler edf \
         --schedule-out "$tmp/s.txt" --decisions "$tmp/d.jsonl"

# --- exit 0: success ----------------------------------------------------
expect 0 "validate intact schedule" \
  "$cli" validate --schedule "$tmp/s.txt" --ctg "$tmp/g.txt" --platform "$tmp/p.txt"
expect 0 "audit replay intact stream" \
  "$cli" audit --replay --decisions "$tmp/d.jsonl" --ctg "$tmp/g.txt" --platform "$tmp/p.txt"

# --- exit 2: bad invocation --------------------------------------------
expect 2 "no command" "$cli"
expect 2 "unknown command" "$cli" frobnicate
expect 2 "unknown flag" \
  "$cli" schedule --ctg "$tmp/g.txt" --platform "$tmp/p.txt" --bogus
expect 2 "missing required flag" "$cli" schedule --ctg "$tmp/g.txt"
expect 2 "campaign without --out" "$cli" campaign --categories 1
expect 2 "campaign without apps" "$cli" campaign --out "$tmp/camp"

# --- exit 1: run failed -------------------------------------------------
expect 1 "unreadable ctg" \
  "$cli" schedule --ctg "$tmp/missing.txt" --platform "$tmp/p.txt"
awk '$1 == "platform" { $8 = "-1" } { print }' "$tmp/p.txt" > "$tmp/neg_energy.txt"
expect 1 "platform with a negative bit energy" \
  "$cli" schedule --ctg "$tmp/g.txt" --platform "$tmp/neg_energy.txt"
# Malformed CTG text: a partial number and a surplus per-PE value are
# rejected where the file is read (the line is named on stderr).
awk '$1 == "task" && !done { $3 = "12abc"; done = 1 } { print }' "$tmp/g.txt" > "$tmp/partial.txt"
expect 1 "ctg with a partial-number deadline" "$cli" info --ctg "$tmp/partial.txt"
awk '$1 == "task" && !done { $0 = $0 " 7"; done = 1 } { print }' "$tmp/g.txt" > "$tmp/surplus.txt"
expect 1 "ctg with a surplus per-PE value" "$cli" info --ctg "$tmp/surplus.txt"
# A schedule whose task 0 starts at 9223372036854775800 but finishes
# earlier is outside the time contract: the reader rejects it.
awk '$1 == "task" && $2 == 0 { $4 = "9223372036854775800" } { print }' "$tmp/s.txt" \
  > "$tmp/late_start.txt"
expect 1 "schedule text with start after finish near INT64_MAX" \
  "$cli" validate --schedule "$tmp/late_start.txt" --ctg "$tmp/g.txt" --platform "$tmp/p.txt"
expect 1 "campaign with unknown scheduler" \
  "$cli" campaign --out "$tmp/camp" --categories 1 --schedulers frobnicate

# --- exit 3: validation / replay mismatch ------------------------------
# Corrupt the exported schedule: bump task 0's finish time by one tick.  The
# validator flags finish != start + exec unconditionally, so this mismatch is
# guaranteed regardless of the schedule's shape.
awk '$1 == "task" && $2 == 0 { $5 = $5 + 1 } { print }' "$tmp/s.txt" > "$tmp/bad.txt"
expect 3 "validate tampered schedule" \
  "$cli" validate --schedule "$tmp/bad.txt" --ctg "$tmp/g.txt" --platform "$tmp/p.txt"

# Task 0 at [9223372036854775800, 9223372036854775800] reads back (it is in
# the time range), and the validator reports that start + exec overflows
# instead of computing it.
awk '$1 == "task" && $2 == 0 { $4 = "9223372036854775800"; $5 = $4 } { print }' \
  "$tmp/s.txt" > "$tmp/overflow.txt"
expect 3 "validate schedule whose start + exec overflows" \
  "$cli" validate --schedule "$tmp/overflow.txt" --ctg "$tmp/g.txt" --platform "$tmp/p.txt"

# --- exit 4: incompatible shard set (campaign merge) --------------------
# A small 2-shard fleet: category-1 apps x 2 seeds x 1 scheduler.
expect 0 "campaign shard 0/2" \
  "$cli" campaign --out "$tmp/fleet/s0" --categories 1 --seeds 2 \
         --schedulers edf --shard 0/2
expect 0 "campaign shard 1/2" \
  "$cli" campaign --out "$tmp/fleet/s1" --categories 1 --seeds 2 \
         --schedulers edf --shard 1/2
expect 2 "bad --shard syntax" \
  "$cli" campaign --out "$tmp/fleet/sx" --categories 1 --shard 2of3
expect 2 "merge without --shards" "$cli" campaign merge --out "$tmp/fleet/m"
expect 0 "merge complete fleet" \
  "$cli" campaign merge --out "$tmp/fleet/merged" \
         --shards "$tmp/fleet/s0,$tmp/fleet/s1"
expect 4 "merge overlapping shards" \
  "$cli" campaign merge --out "$tmp/fleet/m2" \
         --shards "$tmp/fleet/s0,$tmp/fleet/s0"
expect 4 "merge missing shard" \
  "$cli" campaign merge --out "$tmp/fleet/m3" --shards "$tmp/fleet/s0"
# A shard of a different spec (extra seed) cannot merge with the fleet.
expect 0 "campaign foreign shard" \
  "$cli" campaign --out "$tmp/fleet/sF" --categories 1 --seeds 3 \
         --schedulers edf --shard 1/2
expect 4 "merge fingerprint mismatch" \
  "$cli" campaign merge --out "$tmp/fleet/m4" \
         --shards "$tmp/fleet/s0,$tmp/fleet/sF"
# The refusal reason is one machine-readable stderr line.
reason="$("$cli" campaign merge --out "$tmp/fleet/m5" \
          --shards "$tmp/fleet/s0,$tmp/fleet/s0" 2>&1 >/dev/null)"
case "$reason" in
  *"reason=overlapping_shards"*) echo "ok: merge refusal names its reason" ;;
  *) echo "FAIL: merge refusal reason missing (got: $reason)" >&2
     failures=$((failures + 1)) ;;
esac

if [ "$failures" -ne 0 ]; then
  echo "$failures exit-code assertion(s) failed" >&2
  exit 1
fi
echo "all exit-code assertions passed"
