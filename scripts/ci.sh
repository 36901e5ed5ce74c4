#!/usr/bin/env bash
#===- scripts/ci.sh - Multi-tier continuous integration --------------------===#
#
# Tier 0 (lint): the clang-tidy wall (scripts/lint.sh) — skips cleanly when
# clang-tidy is not installed. Tier 1: the plain build and full test suite
# (the gate every change must hold), plus end-to-end workload smokes
# including the --phase1 predict engine (sound cycles certified, guarded
# ones skipped), a cross-jobs check (every registry campaign's table and
# journal identical at --jobs 1 and --jobs 3), a driver-parity check
# (plain dlf-run and the campaign classify every rep alike) and a
# lane-wrap run (three pinned lanes on two CPUs still reproduce every
# collections-lists cycle). Tier 1b (flake gate): the same suite 20 times back to
# back under ctest -j, with no failure allowed — a test that fails one run
# in twenty on a multi-core host is a bug, not noise. Tier 1c (paper
# binaries): table1_main and fig2_variants three times each under a
# timeout at DLF_BENCH_REPS=2 — both mix in-process Active runs with forked
# baselines, so they fork after pooled OS threads exist; every run must
# exit 0, and Table 1 must report zero cycles on the deadlock-free rows;
# then the other two runForkedRuns callers, fig1_example's control and
# dlf-run --normal, must exit 0 and print their summary lines.
# Tier 2: the same suite under ASan+UBSan
# (DLF_SANITIZE=address), which is how the sandbox/journal/pool code gets
# its memory-error coverage. Tier 2b: the runtime, scheduler and campaign
# suites under ThreadSanitizer (DLF_SANITIZE=thread) — the code that
# juggles real pthreads gets real data-race coverage. Sanitized children run several
# times slower, so those tiers use a reduced per-test timeout rather than
# the suite default. Tier 3 (bench smoke): builds the micro-benchmark
# binaries and runs one short closure case so bench-code rot is caught
# here, not when someone finally reruns scripts/bench.sh, and compares the
# scheduler micro binary with itself through scripts/bench_compare.sh,
# which must flag nothing; it then grades
# the analyze-tangle trace at ten fixed seeds and checks the verdict
# counts the generator plants (plus default mode's cycle-spec set and its
# exact closure chain count), and runs the preload-lockstorm workload
# (capture plus dlf-analyze) briefly, requiring a correct result.
# Tier 4 (telemetry smoke): a small campaign with --metrics-out and
# --timeline-out; the trace must parse as JSON and the metrics must carry
# the expected dlf_* names — catching export-format rot end to end.
# Tier 5 (chaos smoke): scripts/chaos.sh drives crash-heavy and
# disk-failure-heavy fault plans against the ASan build — injected child
# segv/hangs, a runner SIGKILL after every third committed rep with a
# checked resume, and a mid-campaign journal device death — asserting the
# self-healing invariants (CRC-intact journal prefix, counts identical to
# a fault-free reference, no stray processes) with memory errors fatal.
# Tier 6 (ring): the out-of-process observation path — one execution
# recorded both as a text trace and through the shared-memory event ring,
# asserting dlf-observe's cycle report is equivalent to dlf-analyze's,
# that the dlf_ring_* telemetry flows through both ends, and that
# dlf-observe's launch mode (memfd + DLF_RING=fd:<n>) works end to end.
# Tier 7 (status server): a chaos-seeded campaign run with
# --status-addr 127.0.0.1:0, scraping /healthz, /metrics, and /status
# mid-run (curl, or python3 urllib when curl is absent), validating the
# status JSON invariants, then asserting the final report and journal are
# byte-identical to a server-less run of the same campaign (modulo the
# run-dependent wall-clock fields).
#
# Usage: scripts/ci.sh [jobs]   (default: nproc)
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier 0: clang-tidy lint wall =="
scripts/lint.sh "$JOBS"

echo "== tier 1: normal build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# Widened-alphabet workloads end to end (rwlock modes, cond-wait
# reacquire): both phases, deterministic confirmation.
build/src/dlf-run rwlock-abba --reps 5 --seed 1 >/dev/null
build/src/dlf-run condvar-hybrid --reps 5 --seed 1 >/dev/null
# Sync-preserving prediction smoke: the predict engine must certify both
# known-real registry deadlocks and discharge the gate-protected one
# without spending phase 2 budget on it.
PREDICTDIR="$(mktemp -d)"
build/src/dlf-run rwlock-abba --campaign --phase1 predict --reps 3 \
  --journal "$PREDICTDIR/rwlock.jsonl" | grep -q 'PREDICTED-SOUND'
build/src/dlf-run condvar-hybrid --campaign --phase1 predict --reps 3 \
  --journal "$PREDICTDIR/condvar.jsonl" | grep -q 'PREDICTED-SOUND'
build/src/dlf-run guarded --campaign --phase1 predict --reps 3 \
  --journal "$PREDICTDIR/guarded.jsonl" | grep -q 'reps executed 0'
rm -rf "$PREDICTDIR"
# Cross-jobs identity: campaign output must not depend on --jobs, however
# the lanes are pinned. For every registry benchmark the per-cycle table
# and the journal (per-rep timing fields and line CRCs stripped) must be
# byte-identical at --jobs 1 and --jobs 3. A lane child runs a batch of
# ceil(reps / jobs) reps, so this compares one 3-rep child per cycle
# (--jobs 1) with three 1-rep children (--jobs 3): it pins that reps run
# back to back in one child classify exactly like reps in fresh children.
XJDIR="$(mktemp -d)"
for BENCH in $(build/src/dlf-run --list |
               awk -F'|' 'NR > 2 { gsub(/ /, "", $2); print $2 }'); do
  for XJOBS in 1 3; do
    build/src/dlf-run "$BENCH" --campaign --reps 3 --jobs "$XJOBS" \
      --journal "$XJDIR/$BENCH.$XJOBS.jsonl" > "$XJDIR/$BENCH.$XJOBS.out"
    grep '^|' "$XJDIR/$BENCH.$XJOBS.out" > "$XJDIR/$BENCH.$XJOBS.table" || true
    sed -E 's/\t[0-9a-f]{8}$//; s/"(wall_ms|cpu_ms)":[^,}]*//g' \
      "$XJDIR/$BENCH.$XJOBS.jsonl" > "$XJDIR/$BENCH.$XJOBS.canon"
  done
  cmp "$XJDIR/$BENCH.1.table" "$XJDIR/$BENCH.3.table" \
    || { echo "$BENCH: per-cycle table depends on --jobs"; exit 1; }
  cmp "$XJDIR/$BENCH.1.canon" "$XJDIR/$BENCH.3.canon" \
    || { echo "$BENCH: journal depends on --jobs"; exit 1; }
done
echo "== cross-jobs identity: every benchmark identical at --jobs 1 and 3 =="
# Driver parity: plain dlf-run (the in-process Phase II loop) and the
# campaign at --jobs 1 and 3 (batches of 10 reps, and of 4, 4 and 2) must
# classify alike: the Cycle, Reproduced, Other, Stalls and Clean columns
# are identical. guarded and jigsaw are left out because the campaign's
# closure keeps the guard-protected cycles plain mode drops, so their
# cycle lists differ, not their classifications.
for BENCH in $(build/src/dlf-run --list |
               awk -F'|' 'NR > 2 { gsub(/ /, "", $2); print $2 }'); do
  case "$BENCH" in guarded | jigsaw) continue ;; esac
  build/src/dlf-run "$BENCH" --reps 10 --seed 7 > "$XJDIR/$BENCH.plain" \
    2>/dev/null
  for PJOBS in 1 3; do
    build/src/dlf-run "$BENCH" --campaign --reps 10 --seed 7 \
      --jobs "$PJOBS" --journal "$XJDIR/$BENCH.p$PJOBS.jsonl" \
      > "$XJDIR/$BENCH.p$PJOBS"
  done
  for RUN in plain p1 p3; do
    awk -F'|' '/^\| #/ { for (I = 2; I <= 6; ++I) { gsub(/ /, "", $I)
                          printf "%s%s", $I, (I < 6 ? "|" : "\n") } }' \
      "$XJDIR/$BENCH.$RUN" > "$XJDIR/$BENCH.$RUN.cols"
  done
  { cmp "$XJDIR/$BENCH.plain.cols" "$XJDIR/$BENCH.p1.cols" &&
      cmp "$XJDIR/$BENCH.plain.cols" "$XJDIR/$BENCH.p3.cols"; } \
    || { echo "$BENCH: in-process and campaign classify differently"
         exit 1; }
done
echo "== driver parity: in-process and campaign classify alike =="
# Lane wrap: three lanes on two CPUs share a core, and every cycle must
# still reproduce.
if [ "$(nproc)" -ge 2 ]; then
  taskset -c 0,1 build/src/dlf-run collections-lists --campaign --jobs 3 \
    --journal "$XJDIR/wrap.jsonl" > "$XJDIR/wrap.out"
  WRAP="$(awk -F'|' '/^\| #/ { split($3, R, "/"); if (R[1] + 0 > 0) ++N }
                     END { print N + 0 }' "$XJDIR/wrap.out")"
  grep -q ' 27 potential cycle(s)' "$XJDIR/wrap.out" && [ "$WRAP" = 27 ] \
    || { echo "lane wrap: $WRAP/27 cycles reproduced"; exit 1; }
  echo "== lane wrap: 27/27 cycles reproduced on 2 CPUs at --jobs 3 =="
else
  echo "== lane wrap: skipped (needs 2 CPUs, host has $(nproc)) =="
fi
rm -rf "$XJDIR"

echo "== tier 1b: flake gate (tier-1 suite 20 times back to back) =="
FLAKELOG="$(mktemp)"
for RUN in $(seq 1 20); do
  if ! ctest --test-dir build --output-on-failure -j "$JOBS" \
      > "$FLAKELOG" 2>&1; then
    cat "$FLAKELOG"
    echo "flake gate: run $RUN of 20 failed"
    exit 1
  fi
done
rm -f "$FLAKELOG"

echo "== tier 1c: paper binaries (Table 1, Figure 2) =="
cmake --build build -j "$JOBS" --target table1_main fig2_variants
PAPERDIR="$(mktemp -d)"
FREE_ROWS="$(build/src/dlf-run --list |
  awk -F'|' '/deadlock-free/ { gsub(/ /, "", $2); print $2 }')"
for RUN in 1 2 3; do
  for BIN in table1_main fig2_variants; do
    DLF_BENCH_REPS=2 timeout 120 "build/bench/$BIN" \
      > "$PAPERDIR/$BIN.$RUN.out" 2>&1 \
      || { cat "$PAPERDIR/$BIN.$RUN.out"
           echo "$BIN run $RUN failed or hung"; exit 1; }
  done
  for ROW in $FREE_ROWS; do
    # Columns: Benchmark, Normal, Phase1, Phase2, iGoodlock, Confirmed.
    awk -F'|' -v Row="$ROW" '{ gsub(/ /, "") } $2 == Row { Seen = 1
           if ($6 != 0 || $7 != 0) Bad = 1 }
         END { exit !(Seen && !Bad) }' "$PAPERDIR/table1_main.$RUN.out" \
      || { echo "table1_main run $RUN: cycles on deadlock-free row $ROW"
           exit 1; }
  done
done
rm -rf "$PAPERDIR"
# The uninstrumented control runs: N runs share one watchdogged child.
cmake --build build -j "$JOBS" --target fig1_example
DLF_BENCH_REPS=2 timeout 60 build/bench/fig1_example \
  | grep -E '^control: uninstrumented deadlocks [0-9]+/50$' \
  || { echo "fig1_example: no control line"; exit 1; }
timeout 60 build/src/dlf-run collections-maps --normal 20 \
  | grep -E '^uninstrumented runs: 20, deadlocked: [0-9]+$' \
  || { echo "dlf-run --normal: no summary line"; exit 1; }
echo "== paper binaries: 3 runs each, deadlock-free rows clean =="

echo "== tier 2: ASan+UBSan build + full test suite =="
cmake -B build-asan -S . -DDLF_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS"
# Sanitized watchdog/hang tests run slower; cap each test instead of
# letting a wedged sanitized child stall the whole pipeline.
ctest --test-dir build-asan --output-on-failure -j "$JOBS" --timeout 90

echo "== tier 2b: TSan build + runtime/scheduler/campaign suites =="
cmake -B build-tsan -S . -DDLF_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target \
  runtime_test scheduler_test campaign_test parallel_closure_test ring_test \
  predict_test status_server_test primitives_test dlf-run
build-tsan/tests/runtime_test
build-tsan/tests/scheduler_test
# The shared lock transitions driven from real threads: the Record-mode
# trylock and producer/consumer cases run them under the record mutex.
build-tsan/tests/primitives_test
# The token handoff under TSan: the per-thread wake, the teardown
# wake-all and the affinity restore, in-process and in campaign children.
build-tsan/tests/campaign_test
build-tsan/src/dlf-run collections-lists --reps 3 --seed 1 >/dev/null
build-tsan/tests/parallel_closure_test
# The predictor under TSan: its tests run the sharded iGoodlock closure
# at several --analysis-jobs values before grading.
build-tsan/tests/predict_test
# The lock-free ring writer/reader under TSan: the seqlock stamps, the
# cached head/tail refreshes, and the cross-shard merge must be race-free.
build-tsan/tests/ring_test
# The status server under TSan: concurrent scrapes racing live publishes
# across the publisher/server-thread seam.
build-tsan/tests/status_server_test
# The rwlock/condvar instrumentation paths under TSan: shared-mode
# bookkeeping and the wakeup/reacquire handoff must be race-free.
build-tsan/src/dlf-run rwlock-abba --reps 3 --seed 1 >/dev/null
build-tsan/src/dlf-run condvar-hybrid --reps 3 --seed 1 >/dev/null

echo "== tier 3: bench smoke (short bench cases) + tangle verdict check =="
cmake --build build -j "$JOBS" --target \
  micro_igoodlock micro_abstraction micro_scheduler micro_analysis \
  micro_predict
build/bench/micro_igoodlock \
  --benchmark_filter='BM_ClosureParallelJobs/6/4' \
  --benchmark_min_time=0.02
build/bench/micro_analysis \
  --benchmark_filter='BM_GuardPrune' --benchmark_min_time=0.02
build/bench/micro_predict \
  --benchmark_filter='BM_PredictLinear/256' --benchmark_min_time=0.02
# A binary compared with itself must show no change beyond the noise.
scripts/bench_compare.sh build/bench/micro_scheduler \
  build/bench/micro_scheduler 'BM_ManagedThreadSpawnJoin/8' 3 0.02 |
  tee /dev/stderr | tail -n 1 | grep -q '^0 of ' \
  || { echo "bench_compare flagged a binary against itself"; exit 1; }
# Verdict check: the analyze-tangle trace at ten fixed seeds must grade
# as constructed: 14 cycles, 6 PREDICTED-SOUND, 4 guarded, 4 hb-ordered.
# Default mode must report the same cycle-spec set, and its closure must
# build exactly 28 chains: the rank-ordered background lies on no
# lock-graph cycle and is never chained, so a larger count means that
# prune was lost. The generator is imported read-only (no bytecode written
# beside it).
DLF_ANALYZE=build/src/dlf-analyze PYTHONDONTWRITEBYTECODE=1 python3 - <<'PY'
import os, subprocess, sys, tempfile
sys.path.insert(0, "e2ebench")
import tangle

def analyze(path, *mode):
    return subprocess.run([os.environ["DLF_ANALYZE"], path, *mode],
                          check=True, capture_output=True,
                          text=True).stdout.splitlines()

def specs(lines):
    return {l for l in lines if l.startswith("cycle-spec: ")}

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "tangle.trace")
    for seed in range(201, 211):
        tangle.write(path, seed)
        out = analyze(path, "--predict")
        default = analyze(path)
        if specs(default) != specs(out):
            sys.exit("tangle seed %d: default and --predict report different "
                     "cycle-spec sets" % seed)
        closure = [l for l in default if l.startswith("closure: ")]
        if not closure or not closure[0].startswith("closure: 28 chains,"):
            sys.exit("tangle seed %d: %s, want closure: 28 chains"
                     % (seed, closure))
        verdicts = [l for l in out if l.startswith("prediction: ")]
        got = (len(verdicts),
               sum("PREDICTED-SOUND" in l for l in verdicts),
               sum("UNCONFIRMED (guarded" in l for l in verdicts),
               sum(l.endswith("UNCONFIRMED (hb-ordered)") for l in verdicts))
        if got != (14, 6, 4, 4):
            sys.exit("tangle seed %d: cycles/sound/guarded/hb-ordered = %s, "
                     "want (14, 6, 4, 4)" % (seed, got))
print("tangle verdicts: 10 seeds, 14 cycles each (6 sound, 4 guarded, "
      "4 hb-ordered), default mode alike in 28 closure chains")
PY
# Lock storm end to end: the contended preload capture of an 800k-event
# two-thread storm, then dlf-analyze streaming the captured trace. Nothing
# else here drives that path at this size on a multi-core host. run.py
# (read-only; it builds into .bench_build/) checks the trace's line count
# and the four planted cycles; every operation must pass.
PYTHONDONTWRITEBYTECODE=1 python3 e2ebench/run.py \
  --workload preload-lockstorm --seed 7 --seconds 2 | tail -n 1 |
  python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("preload-lockstorm: correct=%s, %s of %s operations failed"
             % (r.get("correct"), r.get("failed"), r.get("attempted")))
print("preload-lockstorm: correct, %d operations, 0 failed" % r["attempted"])'

echo "== tier 4: telemetry smoke (campaign export formats) =="
TELDIR="$(mktemp -d)"
trap 'rm -rf "$TELDIR"' EXIT
# guarded + --include-guarded is thrash-prone (the gate lock keeps the
# cycle from closing), so the timeline must show thrash instants; dbcp
# covers deadlock-found. The guarded campaign runs at --jobs 1 and
# --jobs 4: child telemetry rides the result pipe and is merged at the
# in-order commit frontier, so the two counter maps must be identical (the
# DESIGN.md §10 determinism contract) except for the operational
# dlf_campaign_children_total, which counts forked children and so follows
# the batch size --jobs sets; each journal's directory must hold nothing
# but the journal afterwards.
for JOBS in 1 4; do
  mkdir "$TELDIR/j$JOBS"
  build/src/dlf-run guarded --campaign --include-guarded --reps 10 \
    --jobs "$JOBS" --journal "$TELDIR/j$JOBS/guarded.jsonl" \
    --metrics-out "$TELDIR/m$JOBS.json" --timeline-out "$TELDIR/t$JOBS.json"
  LEFT="$(ls -A "$TELDIR/j$JOBS")"
  if [ "$LEFT" != "guarded.jsonl" ]; then
    echo "journal directory holds more than the journal (--jobs $JOBS):" \
      $LEFT >&2
    exit 1
  fi
done
build/src/dlf-run dbcp --campaign --reps 5 --jobs 4 \
  --journal "$TELDIR/dbcp.jsonl" \
  --metrics-out "$TELDIR/m.prom" --metrics-format prom
python3 - "$TELDIR" <<'EOF'
import json, sys

teldir = sys.argv[1]
with open(f"{teldir}/t4.json") as f:
    trace = json.load(f)  # must be well-formed JSON
events = trace["traceEvents"]
assert any(e.get("name") == "thrash" for e in events), \
    "no thrash instant on a thrash-prone cycle"
assert any(e.get("ph") == "X" for e in events), "no duration spans"

with open(f"{teldir}/m1.json") as f:
    serial = json.load(f)
with open(f"{teldir}/m4.json") as f:
    metrics = json.load(f)
# Operational: one 10-rep child at --jobs 1, four children at --jobs 4.
children = "dlf_campaign_children_total"
assert serial["counters"].pop(children, 0) == 1, f"{children} at --jobs 1"
assert metrics["counters"].pop(children, 0) == 4, f"{children} at --jobs 4"
if serial["counters"] != metrics["counters"]:
    diff = {k: (serial["counters"].get(k), metrics["counters"].get(k))
            for k in set(serial["counters"]) | set(metrics["counters"])
            if serial["counters"].get(k) != metrics["counters"].get(k)}
    sys.exit(f"counters differ between --jobs 1 and --jobs 4: {diff}")
required = [
    "dlf_scheduler_pauses_total",
    "dlf_scheduler_thrashes_total",
    "dlf_campaign_reps_total",
    "dlf_igoodlock_cycles_total",
]
for name in required:
    assert name in metrics["counters"], f"missing counter {name}"

prom = open(f"{teldir}/m.prom").read()
for name in ["dlf_scheduler_deadlocks_found_total",
             "dlf_campaign_reps_total",
             "dlf_campaign_children_total",
             "dlf_campaign_rep_wall_ms_bucket{le=\"+Inf\"}"]:
    assert name in prom, f"missing Prometheus metric {name}"
print("== telemetry smoke: formats OK ==")
EOF

echo "== tier 5: chaos smoke (fault injection + self-healing under ASan) =="
scripts/chaos.sh --bin build-asan/src/dlf-run --mode crash
scripts/chaos.sh --bin build-asan/src/dlf-run --mode disk

echo "== tier 6: ring transport (out-of-process observation equivalence) =="
RINGDIR="$(mktemp -d)"
trap 'rm -rf "$TELDIR" "$RINGDIR"' EXIT
# One execution, two recordings: the per-cycle report blocks (and the
# cycle count) from dlf-observe on the ring must equal dlf-analyze on the
# text trace. The closure timing line is run-dependent and excluded.
summarize_cycles() {
  grep -oE '[0-9]+ potential deadlock cycle\(s\)' "$1"
  grep -E '^#|^pruner: |^classification: |^cycle-spec: |^  ' "$1" || true
}
for WORKLOAD in rwlock-abba condvar-hybrid; do
  LD_PRELOAD=build/src/libdlf_preload.so \
    DLF_PRELOAD_TRACE="$RINGDIR/$WORKLOAD.trace" \
    DLF_RING="$RINGDIR/$WORKLOAD.ring" \
    DLF_METRICS_SIDECAR="$RINGDIR/$WORKLOAD.sidecar.json" \
    build/tests/preload_ring_work "$WORKLOAD"
  build/src/dlf-analyze "$RINGDIR/$WORKLOAD.trace" \
    > "$RINGDIR/$WORKLOAD.analyze.out" 2>/dev/null
  build/src/dlf-observe "$RINGDIR/$WORKLOAD.ring" \
    --metrics-out "$RINGDIR/$WORKLOAD.metrics.json" \
    > "$RINGDIR/$WORKLOAD.observe.out" 2>/dev/null
  summarize_cycles "$RINGDIR/$WORKLOAD.analyze.out" \
    > "$RINGDIR/$WORKLOAD.analyze.cycles"
  summarize_cycles "$RINGDIR/$WORKLOAD.observe.out" \
    > "$RINGDIR/$WORKLOAD.observe.cycles"
  diff -u "$RINGDIR/$WORKLOAD.analyze.cycles" \
          "$RINGDIR/$WORKLOAD.observe.cycles" \
    || { echo "ring/text cycle reports diverge for $WORKLOAD"; exit 1; }
  # The ring telemetry counters flow through both ends: the writer's
  # sidecar (per-event ring occupancy and totals) and the observer's
  # --metrics-out (drain accounting).
  grep -q 'dlf_ring_records_total' "$RINGDIR/$WORKLOAD.sidecar.json"
  grep -q 'dlf_ring_drained_total' "$RINGDIR/$WORKLOAD.metrics.json"
  echo "== ring: $WORKLOAD reports equivalent =="
done
# Launch mode end to end: dlf-observe owns the ring on a memfd and hands
# it to the forked target as DLF_RING=fd:<n>.
build/src/dlf-observe --preload build/src/libdlf_preload.so \
  -- build/tests/preload_ring_work rwlock-abba \
  > "$RINGDIR/launch.out" 2>/dev/null
grep -q '1 potential deadlock cycle(s)' "$RINGDIR/launch.out"
echo "== ring: launch mode OK =="

echo "== tier 7: status server (live scrape + server-less equivalence) =="
SRVDIR="$(mktemp -d)"
trap 'rm -rf "$TELDIR" "$RINGDIR" "$SRVDIR"' EXIT
fetch() {
  if command -v curl >/dev/null 2>&1; then
    curl -sSf --max-time 10 "$1"
  else
    python3 -c 'import sys, urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1], timeout=10).read().decode())' "$1"
  fi
}
# Chaos seed 3 injects child crashes/hangs/spawn failures but no journal
# faults, so the journal survives for the equivalence check below.
CAMPAIGN=(build/src/dlf-run dbcp --campaign --chaos 3 --reps 60 --jobs 2
          --run-timeout-ms 300)
"${CAMPAIGN[@]}" --journal "$SRVDIR/ref.jsonl" \
  --metrics-out "$SRVDIR/ref.metrics.json" > "$SRVDIR/ref.out"
"${CAMPAIGN[@]}" --journal "$SRVDIR/live.jsonl" \
  --metrics-out "$SRVDIR/live.metrics.json" \
  --status-addr 127.0.0.1:0 \
  > "$SRVDIR/live.out" 2> "$SRVDIR/live.err" &
LIVE_PID=$!
# Port 0 is ephemeral; the bound port is echoed on stderr before phase 1.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n \
    's|^status server listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' \
    "$SRVDIR/live.err")"
  [ -n "$PORT" ] && break
  sleep 0.05
done
[ -n "$PORT" ] || { echo "no status port echoed"; kill "$LIVE_PID"; exit 1; }
fetch "http://127.0.0.1:$PORT/healthz" | grep -qx 'ok'
fetch "http://127.0.0.1:$PORT/metrics" > "$SRVDIR/scrape.prom"
fetch "http://127.0.0.1:$PORT/status" > "$SRVDIR/scrape.status.json"
grep -q 'dlf_build_info{tool="dlf-run",benchmark="dbcp"} 1' \
  "$SRVDIR/scrape.prom"
python3 - "$SRVDIR/scrape.status.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    st = json.load(f)
assert st["tool"] == "dlf-run", st
assert st["benchmark"] == "dbcp", st
assert st["phase"] in ("phase1", "phase2", "done", "interrupted"), st
prog = st["progress"]
done = sum(c["reps_done"] for c in st.get("cycles", []))
assert done == prog["reps_committed"], (done, prog)
assert prog["reps_committed"] <= prog["reps_total"] or \
    prog["reps_total"] == 0, prog
print(f"== status scrape OK: phase={st['phase']} "
      f"committed={prog['reps_committed']} ==")
EOF
wait "$LIVE_PID"
# The server must not perturb the campaign: the final report is identical
# modulo the wall-clock throughput line (and the metrics confirmation
# line, which embeds the differing output path), and the journals are
# identical modulo per-rep timing fields (stripping them invalidates the
# line CRC, so compare canonicalized JSON, not bytes).
grep -vE '^(throughput: |metrics written to )' "$SRVDIR/ref.out" \
  > "$SRVDIR/ref.counts"
grep -vE '^(throughput: |metrics written to )' "$SRVDIR/live.out" \
  > "$SRVDIR/live.counts"
diff -u "$SRVDIR/ref.counts" "$SRVDIR/live.counts" \
  || { echo "status server perturbed the campaign report"; exit 1; }
python3 - "$SRVDIR/ref.jsonl" "$SRVDIR/live.jsonl" <<'EOF'
import json, sys

def canon(path):
    out = []
    for line in open(path):
        doc = json.loads(line.split("\t")[0])
        for key in ("wall_ms", "cpu_ms", "diag"):
            doc.pop(key, None)
        out.append(json.dumps(doc, sort_keys=True))
    return out

ref, live = canon(sys.argv[1]), canon(sys.argv[2])
assert ref == live, "journals diverge between server-less and live runs"
print(f"== journals equivalent ({len(ref)} records) ==")
EOF
echo "== status server: live scrape OK, server-less equivalence holds =="

echo "== ci: all tiers passed =="
