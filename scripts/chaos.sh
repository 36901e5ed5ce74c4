#!/usr/bin/env bash
#===- scripts/chaos.sh - Chaos soak for the campaign runtime ---------------===#
#
# Drives dlf-run campaigns through injected faults and asserts the
# self-healing invariants end to end, from outside the process:
#
#   * the journal is always a parseable prefix of CRC-intact records —
#     validated here with an independent decoder (Python's zlib.crc32),
#     not the library that wrote it;
#   * a campaign killed by an injected runner SIGKILL is resumable, every
#     time, and the finished campaign's per-cycle classification counts are
#     byte-identical to a fault-free serial reference run;
#   * a campaign whose journal device dies degrades to in-memory results
#     (same counts, journal set aside as .broken) instead of aborting;
#   * no stray or zombie dlf-run processes survive any of it.
#
# Modes:
#   crash  explicit crash-heavy plan: child segv + hang + a runner SIGKILL
#          every third committed rep, resumed in a loop until completion
#   disk   journal fsync dies mid-campaign; the run must degrade gracefully
#   soak   randomized plans from --chaos seeds, each checked against the
#          fault-free reference and (when the journal survived) resumed
#   all    crash + disk + soak (default)
#
# Usage: scripts/chaos.sh [--bin PATH] [--mode crash|disk|soak|all]
#                         [--seed N] [--seeds N] [--bench NAME] [--reps N]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

BIN=build/src/dlf-run
MODE=all
SEED=1
SEEDS=3
BENCH=dbcp
REPS=8
TIMEOUT_MS=2000

while [ $# -gt 0 ]; do
  case "$1" in
    --bin) BIN="$2"; shift 2 ;;
    --mode) MODE="$2"; shift 2 ;;
    --seed) SEED="$2"; shift 2 ;;
    --seeds) SEEDS="$2"; shift 2 ;;
    --bench) BENCH="$2"; shift 2 ;;
    --reps) REPS="$2"; shift 2 ;;
    *) echo "usage: $0 [--bin PATH] [--mode crash|disk|soak|all]" \
            "[--seed N] [--seeds N] [--bench NAME] [--reps N]" >&2; exit 2 ;;
  esac
done

[ -x "$BIN" ] || { echo "chaos: $BIN not built" >&2; exit 2; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Per-cycle table rows from a dlf-run transcript, minus the Retries column:
# injected transient faults converge to the fault-free classifications, but
# the restarts they forced are (correctly) billed as retries.
rows() {
  python3 - "$1" <<'EOF'
import sys
for line in open(sys.argv[1]):
    if line.startswith('| #'):
        cols = [c.strip() for c in line.rstrip('\n').split('|')]
        del cols[9]  # Retries
        print('|'.join(cols))
EOF
}

# Independent journal validation: every line must be `<json>\t<8-hex crc32
# of the json>\n`, starting with the header record. Any torn or corrupt
# line — including an unterminated final one — fails the invariant (the
# runner's own kill site closes the journal only after a complete record).
check_journal() {
  python3 - "$1" <<'EOF'
import json, sys, zlib
path = sys.argv[1]
data = open(path, 'rb').read()
assert data, f"{path}: empty journal"
assert data.endswith(b'\n'), f"{path}: torn final line"
lines = data.split(b'\n')[:-1]
for i, ln in enumerate(lines):
    body, tab, tag = ln.rpartition(b'\t')
    assert tab, f"{path}:{i+1}: no integrity tag"
    assert len(tag) == 8, f"{path}:{i+1}: malformed integrity tag"
    assert int(tag, 16) == zlib.crc32(body) & 0xffffffff, \
        f"{path}:{i+1}: crc mismatch"
    json.loads(body)
assert b'"dlf_campaign"' in lines[0], f"{path}: first record is not a header"
print(f"  journal OK: {len(lines)} intact records")
EOF
}

# No dlf-run process (running or zombie) may outlive a campaign — the
# sandbox ties child lifetimes to the runner with PR_SET_PDEATHSIG, so even
# a SIGKILLed runner must take its children with it. /proc is scanned
# directly to avoid a pgrep dependency.
#
# --after-runner-kill is for the round whose runner was SIGKILLed on
# purpose, and only loosens the check there: a lane child runs a batch of
# reps, so the kill usually catches one mid-batch. It dies at once, but
# orphaned it stays a zombie until init reaps it, and some container inits
# reap lazily (half a second and more). A zombie whose parent is init then
# gets up to 5 s to be reaped; any other dlf-run (running, or a zombie of
# a live process) is a stray at once. Every other round is strict.
no_strays() {
  local grace=0
  [ "${1:-}" = --after-runner-kill ] && grace=50
  sleep 0.3 # let PDEATHSIG delivery and reaping settle
  local stat pid comm state ppid found orphans waited=0
  while :; do
    found=0
    orphans=0
    for stat in /proc/[0-9]*/stat; do
      read -r pid comm state ppid _ < "$stat" 2>/dev/null || continue
      [ "$comm" = "(dlf-run)" ] || continue
      if [ "$grace" != 0 ] && [ "$state" = Z ] && [ "$ppid" = 1 ]; then
        orphans=$((orphans + 1))
      else
        echo "chaos: stray dlf-run process $pid (state $state)" >&2
        found=1
      fi
    done
    [ "$found" = 0 ] || return 1
    [ "$orphans" != 0 ] || return 0
    if [ "$waited" -ge "$grace" ]; then
      echo "chaos: $orphans orphaned dlf-run zombie(s) not reaped by init" >&2
      return 1
    fi
    waited=$((waited + 1))
    sleep 0.1
  done
}

echo "== chaos: fault-free serial reference ($BENCH, $REPS reps) =="
"$BIN" "$BENCH" --campaign --reps "$REPS" --run-timeout-ms "$TIMEOUT_MS" \
  --journal "$WORK/ref.jsonl" >"$WORK/ref.out"
check_journal "$WORK/ref.jsonl"
REF_ROWS="$(rows "$WORK/ref.out")"
[ -n "$REF_ROWS" ] || { echo "chaos: reference produced no table" >&2; exit 1; }

run_crash() {
  echo "== chaos: crash mode (child faults + kill/resume loop) =="
  local J="$WORK/crash.jsonl"
  local PLAN='child.crash:segv@rep=1;child.hang@rep=2;runner.kill@3'
  local round=0 code journal_arg
  rm -f "$J"
  while :; do
    round=$((round + 1))
    [ "$round" -le 32 ] || { echo "chaos: kill loop did not converge" >&2; exit 1; }
    journal_arg=--journal
    [ "$round" -gt 1 ] && journal_arg=--resume
    code=0
    "$BIN" "$BENCH" --campaign --reps "$REPS" --run-timeout-ms "$TIMEOUT_MS" \
      --faults "$PLAN" "$journal_arg" "$J" \
      >"$WORK/crash.out" 2>"$WORK/crash.err" || code=$?
    if [ "$code" -eq 137 ]; then
      echo "  round $round: runner killed as planned; validating journal"
      check_journal "$J"
      no_strays --after-runner-kill
      continue
    fi
    [ "$code" -eq 0 ] || { echo "chaos: unexpected exit $code" >&2
                           cat "$WORK/crash.err" >&2; exit 1; }
    break
  done
  grep -q "campaign complete" "$WORK/crash.out" || {
    echo "chaos: campaign did not complete" >&2; exit 1; }
  no_strays
  check_journal "$J"
  if [ "$(rows "$WORK/crash.out")" != "$REF_ROWS" ]; then
    echo "chaos: crash-mode counts diverged from the reference:" >&2
    diff <(echo "$REF_ROWS") <(rows "$WORK/crash.out") >&2 || true
    exit 1
  fi
  echo "  converged after $round run(s); counts match the reference"
}

run_disk() {
  echo "== chaos: disk mode (journal dies mid-campaign) =="
  local J="$WORK/disk.jsonl"
  rm -f "$J" "$J.broken"
  "$BIN" "$BENCH" --campaign --reps "$REPS" --run-timeout-ms "$TIMEOUT_MS" \
    --faults 'journal.fsync:enospc@4' --journal "$J" \
    >"$WORK/disk.out" 2>"$WORK/disk.err"
  grep -q "campaign complete" "$WORK/disk.out" || {
    echo "chaos: degraded campaign did not complete" >&2; exit 1; }
  grep -q "journal degraded" "$WORK/disk.out" || {
    echo "chaos: degradation was not reported" >&2; exit 1; }
  [ -f "$J.broken" ] || { echo "chaos: no .broken journal" >&2; exit 1; }
  [ ! -f "$J" ] || { echo "chaos: degraded journal left in place" >&2; exit 1; }
  no_strays
  if [ "$(rows "$WORK/disk.out")" != "$REF_ROWS" ]; then
    echo "chaos: disk-mode counts diverged from the reference" >&2
    exit 1
  fi
  echo "  degraded gracefully; counts match the reference"
}

run_soak() {
  echo "== chaos: soak mode (seeds $SEED..$((SEED + SEEDS - 1))) =="
  local s J
  for s in $(seq "$SEED" $((SEED + SEEDS - 1))); do
    J="$WORK/soak-$s.jsonl"
    rm -f "$J" "$J.broken"
    "$BIN" "$BENCH" --campaign --reps "$REPS" --run-timeout-ms "$TIMEOUT_MS" \
      --jobs 2 --chaos "$s" --journal "$J" \
      >"$WORK/soak.out" 2>"$WORK/soak.err"
    grep -q "campaign complete" "$WORK/soak.out" || {
      echo "chaos: seed $s campaign did not complete" >&2; exit 1; }
    no_strays
    if [ "$(rows "$WORK/soak.out")" != "$REF_ROWS" ]; then
      echo "chaos: seed $s counts diverged from the reference:" >&2
      diff <(echo "$REF_ROWS") <(rows "$WORK/soak.out") >&2 || true
      exit 1
    fi
    if [ -f "$J" ]; then
      # The journal survived this seed's plan: it must replay completely.
      check_journal "$J"
      "$BIN" "$BENCH" --campaign --reps "$REPS" \
        --run-timeout-ms "$TIMEOUT_MS" --jobs 2 --resume "$J" \
        >"$WORK/soak-resume.out"
      grep -q "reps executed 0" "$WORK/soak-resume.out" || {
        echo "chaos: seed $s completed journal did not replay fully" >&2
        exit 1; }
      echo "  seed $s: counts match; journal replays clean"
    else
      [ -f "$J.broken" ] || {
        echo "chaos: seed $s journal vanished without degrading" >&2
        exit 1; }
      echo "  seed $s: counts match; journal degraded as planned"
    fi
  done
}

case "$MODE" in
  crash) run_crash ;;
  disk) run_disk ;;
  soak) run_soak ;;
  all) run_crash; run_disk; run_soak ;;
  *) echo "chaos: unknown mode '$MODE'" >&2; exit 2 ;;
esac

echo "== chaos: all invariants held =="
