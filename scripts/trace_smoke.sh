#!/usr/bin/env bash
# Trace-replay smoke test (see docs/trace_replay.md).
#
# Captures a Livermore trace with pipesim-trace, round-trips it
# through inspect (checksum verification happens on every read), and
# checks the replay engine's validation contract end to end:
#
#   1. capture -> inspect -> replay round-trips with matching hashes;
#   2. a --engine trace sweep renders the *same table* as the cycle
#      engine, byte-identical under --jobs 1 and --jobs 8;
#   3. the replay stats JSON attributes the run to the trace (engine,
#      trace_sha256, program_sha256);
#   4. a truncated trace file raises a FatalError diagnostic (exit 1),
#      never a crash or hang;
#   5. sampled replay: its windows run serially (--jobs 1) and pooled
#      (--jobs 8) produce byte-identical stats.
#
# Usage: scripts/trace_smoke.sh [build-dir]
set -euo pipefail

BUILD="${1:-build}"
TOOL="$BUILD/tools/pipesim-trace"
BENCH="$BUILD/bench/sweep_memspeed"
SCALE=0.05
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== capture"
"$TOOL" capture "$WORK/livermore.pipetrc" --scale "$SCALE" \
    > "$WORK/capture.txt"
grep -q "trace sha256" "$WORK/capture.txt"

echo "== inspect (checksum-verified read)"
"$TOOL" inspect "$WORK/livermore.pipetrc" > "$WORK/inspect.txt"
grep -q "records:" "$WORK/inspect.txt"
# Capture and inspect agree on the content hash.
CAP_SHA=$(awk '/trace sha256/ { print $3 }' "$WORK/capture.txt")
INS_SHA=$(awk '/trace sha256/ { print $3 }' "$WORK/inspect.txt")
test "$CAP_SHA" = "$INS_SHA"

echo "== exact replay with stats json"
"$TOOL" replay "$WORK/livermore.pipetrc" --scale "$SCALE" \
    --stats-json "$WORK/replay.json" > "$WORK/replay.txt"
grep -q "trace-exact" "$WORK/replay.txt"
grep -q '"engine":"trace-exact"' "$WORK/replay.json"
grep -q "\"trace_sha256\":\"$CAP_SHA\"" "$WORK/replay.json"
grep -q '"program_sha256"' "$WORK/replay.json"

echo "== cycle sweep vs trace sweep: identical tables"
"$BENCH" --scale "$SCALE" --jobs 1 > "$WORK/cycle.txt"
"$BENCH" --scale "$SCALE" --jobs 1 --engine trace \
    --trace-file "$WORK/livermore.pipetrc" > "$WORK/trace_j1.txt"
"$BENCH" --scale "$SCALE" --jobs 8 --engine trace \
    --trace-file "$WORK/livermore.pipetrc" > "$WORK/trace_j8.txt"
cmp "$WORK/cycle.txt" "$WORK/trace_j1.txt"
cmp "$WORK/trace_j1.txt" "$WORK/trace_j8.txt"

echo "== sampled replay: identical at any job count"
for jobs in 1 8; do
    "$TOOL" replay "$WORK/livermore.pipetrc" --scale "$SCALE" \
        --sample-period 2000 --jobs "$jobs" \
        --stats-json "$WORK/sampled_j$jobs.json" > /dev/null
done
grep -q '"engine":"trace-sampled"' "$WORK/sampled_j1.json"
diff "$WORK/sampled_j1.json" "$WORK/sampled_j8.json"

echo "== corrupted trace raises FatalError, never a crash"
head -c 100 "$WORK/livermore.pipetrc" > "$WORK/truncated.pipetrc"
set +e
"$TOOL" inspect "$WORK/truncated.pipetrc" > "$WORK/bad.txt" 2>&1
STATUS=$?
set -e
test "$STATUS" -eq 1 # FatalError exit code (sim/guard.hh)
grep -q "fatal:" "$WORK/bad.txt"

echo "trace smoke: OK"
