#!/usr/bin/env bash
#===- scripts/bench_compare.sh - Interleaved micro-benchmark comparison ----===#
#
# Compares two builds of one micro-benchmark binary (say, a parent commit's
# and a change's) on one --benchmark_filter. One recording per side cannot
# resolve a change smaller than the host's run-to-run swing, so this runs
# the two binaries alternately K times each (A B A B ...), keeps every
# benchmark's minimum real time per side, and flags a change only when the
# gap between the two minima exceeds both sides' spreads (max - min over
# the K runs) added together.
#
# Usage: scripts/bench_compare.sh BIN_A BIN_B FILTER [K [MIN_TIME]]
#   K:        runs per side (default 5)
#   MIN_TIME: --benchmark_min_time per run, plain seconds (default 0.05)
#
# Prints one row per benchmark (min A, min B, B/A, spreads, verdict) and a
# last line "N of M benchmark(s) changed beyond the noise". Exits 0 either
# way; exits 1 on a usage error or a failed run.
#
#===----------------------------------------------------------------------===#

set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 BIN_A BIN_B FILTER [K [MIN_TIME]]" >&2
  exit 1
fi
BIN_A="$1"
BIN_B="$2"
FILTER="$3"
K="${4:-5}"
MIN_TIME="${5:-0.05}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for RUN in $(seq 1 "$K"); do
  for SIDE in A B; do
    BIN="$BIN_A"
    [ "$SIDE" = B ] && BIN="$BIN_B"
    "$BIN" --benchmark_filter="$FILTER" --benchmark_format=json \
      --benchmark_min_time="$MIN_TIME" > "$WORK/$SIDE.$RUN.json"
  done
done

python3 - "$WORK" "$K" <<'EOF'
import json, sys

work, k = sys.argv[1], int(sys.argv[2])
scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
times = {"A": {}, "B": {}}
for side in times:
    for run in range(1, k + 1):
        with open(f"{work}/{side}.{run}.json") as f:
            for b in json.load(f)["benchmarks"]:
                ns = b["real_time"] * scale[b.get("time_unit", "ns")]
                times[side].setdefault(b["name"], []).append(ns)

names = [n for n in times["A"] if n in times["B"]]
if not names:
    sys.exit("bench_compare: no benchmark ran on both sides")
print(f"{'benchmark':<40} {'min A ns':>12} {'min B ns':>12} {'B/A':>6} "
      f"{'spread A':>10} {'spread B':>10}  verdict")
changed = 0
for name in names:
    a, b = times["A"][name], times["B"][name]
    spread = (max(a) - min(a)) + (max(b) - min(b))
    gap = min(b) - min(a)
    verdict = "-"
    if abs(gap) > spread:
        verdict = "faster" if gap < 0 else "slower"
        changed += 1
    print(f"{name:<40} {min(a):>12.0f} {min(b):>12.0f} "
          f"{min(b) / min(a):>6.2f} {max(a) - min(a):>10.0f} "
          f"{max(b) - min(b):>10.0f}  {verdict}")
print(f"{changed} of {len(names)} benchmark(s) changed beyond the noise")
EOF
