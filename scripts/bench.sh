#!/usr/bin/env bash
#===- scripts/bench.sh - micro-benchmark baselines --------------------------===#
#
# Builds the bench binaries and runs every micro-benchmark with
# --benchmark_format=json, five repetitions each and the host's nproc
# stamped into the context, writing one baseline file per binary at the
# repo root (BENCH_igoodlock.json, BENCH_abstraction.json,
# BENCH_scheduler.json, BENCH_analysis.json, BENCH_predict.json,
# BENCH_ring.json, BENCH_serve.json).
# The JSON files are checked in so perf changes show up as reviewable
# diffs; re-run this script after touching the closure, the abstraction
# machinery, or the scheduler, and commit the new numbers alongside the
# change. Absolute times are machine-dependent — compare ratios, not
# values, across machines.
#
# Usage: scripts/bench.sh [min_time [name...]]
#   min_time: google-benchmark --benchmark_min_time value (default 0.1;
#             plain seconds as a bare number — older benchmark releases
#             reject the "0.1s" suffix form).
#   name:     re-record only these baselines (e.g. "analysis"); default
#             all. BENCH_summary.json is always rebuilt from every file.
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
MIN_TIME="${1:-0.1}"
shift $(( $# > 0 ? 1 : 0 ))
NAMES=("$@")
if [ "${#NAMES[@]}" -eq 0 ]; then
  NAMES=(igoodlock abstraction scheduler analysis predict ring serve)
fi

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target "${NAMES[@]/#/micro_}"

for NAME in "${NAMES[@]}"; do
  BIN="build/bench/micro_${NAME}"
  OUT="BENCH_${NAME}.json"
  echo "== ${BIN} -> ${OUT} =="
  "${BIN}" --benchmark_format=json \
           --benchmark_min_time="${MIN_TIME}" \
           --benchmark_repetitions=5 \
           --benchmark_context=nproc="$(nproc)" > "${OUT}"
done

# Merge every per-binary baseline into one flat name -> ns/op map (the
# median of the repetitions where a file has them); a single file to
# eyeball (or diff) for the whole suite.
python3 - <<'EOF'
import json

summary = {}
for name in ["igoodlock", "abstraction", "scheduler", "analysis", "predict",
             "ring", "serve"]:
    with open(f"BENCH_{name}.json") as f:
        doc = json.load(f)
    benches = doc.get("benchmarks", [])
    medians = {b["run_name"] for b in benches
               if b.get("aggregate_name") == "median"}
    for bench in benches:
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") != "median":
                continue
        elif bench.get("run_name", bench["name"]) in medians:
            continue
        ns = bench["real_time"]
        unit = bench.get("time_unit", "ns")
        ns *= {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        summary[bench.get("run_name", bench["name"])] = round(ns, 2)

with open("BENCH_summary.json", "w") as f:
    json.dump(summary, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"== bench: BENCH_summary.json ({len(summary)} benchmarks) ==")
EOF

echo "== bench: baselines written =="
