#!/usr/bin/env python3
"""End-to-end benchmark of the two pipelines users run.

Run from the root of a source tree:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads (each runs the shipped binaries as a user would):

  campaign-collections  dlf-run collections-lists --campaign --jobs 3: Phase I,
                        pruning, then sandboxed Phase II repetitions
                        committed in order to a journal.
  analyze-tangle        dlf-analyze --predict over a seeded trace with
                        planted real, gate-guarded and fork/join-ordered
                        cycles (tangle.py).
  preload-lockstorm     a seeded pthreads program (lockstorm.cpp) captured
                        under LD_PRELOAD=libdlf_preload.so, then plain
                        dlf-analyze on the captured trace.

The first run builds everything under .bench_build/ with the repository's
own CMake configuration (e2ebench/CMakeLists.txt). A run then prepares its
inputs SETUP_REPS times (setup_s is the median), and repeats the pipeline
until --seconds have passed (see end_to_end for the statistics reported).
Every iteration's outputs are checked against references derived by hand
from how the inputs were built; a mismatch, a non-zero exit or a hung or
crashed campaign repetition makes the result incorrect and counts as a
failed operation.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 the run first times the untraced pipeline for part of the budget,
then runs dlf-layers (layers.cpp), which times each layer's public entry
points from outside the library, and reports the per-layer metrics plus the
tracing overhead (traced pipeline time against the untraced one). A
`context` line before the result stamps the host: nproc, build type,
source revision, the CPU steal time /proc/stat saw during the run, and the
count, min, median, p90 and max of the iteration times.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
import tangle  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
WORK = os.path.join(ROOT, ".bench_build", "work")
TARGETS = ["dlf-run", "dlf-analyze", "dlf_preload", "dlf-layers", "lockstorm"]

# campaign-collections runs the `collections-lists` registry entry; its
# reference counts are ExpectedCycles and ExpectedConfirmable in
# BenchmarkRegistry.cpp. (The full `collections` bundle is not used: on
# about 1 seed in 18 every Phase I observation of its maps half deadlocks,
# and the partial report lists fewer than 47 cycles.) Each list cycle
# reproduces in about 19 reps of 20, so missing one in 20 reps is
# practically impossible.
CAMPAIGN_BENCH = "collections-lists"
CAMPAIGN_REPS = 20
CAMPAIGN_JOBS = 3
CAMPAIGN_CYCLES = 27
CAMPAIGN_CONFIRMABLE = 27

# preload-lockstorm: nested pairs per worker thread and planted inversions.
STORM_PAIRS = 100000
STORM_INVERSIONS = 4
STORM_POOL = 8  # PoolLocks in lockstorm.cpp

# traced run: seeds per cycle for the in-process runOnce sample.
FUZZ_SEEDS_PER_CYCLE = 3

SETUP_REPS = 5
MIN_ITERATIONS = 3
PROCESS_TIMEOUT_S = 60

WORKLOADS = ("campaign-collections", "analyze-tangle", "preload-lockstorm")


class BenchError(Exception):
    """A failure that means no result can be reported."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spawn(argv, out_path, env=None):
    """Runs argv with stdout and stderr to out_path(.err). Returns a dict
    with rc, wall_s, cpu_s (user+sys of the process and every descendant
    it reaped) and rss_mb (largest RSS among them)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                start_new_session=True)
        timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0}


def read(path):
    with open(path, errors="replace") as f:
        return f.read()


def tool(name):
    if name == "dlf_preload":
        return os.path.join(BUILD, "repo", "src", "libdlf_preload.so")
    if name in ("dlf-layers", "lockstorm"):
        return os.path.join(BUILD, name)
    return os.path.join(BUILD, "repo", "src", name)


def cmake_build(log_path):
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "wb") as out:
        rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs,
                              "--target"] + TARGETS,
                             stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        log(read(log_path)[-4000:])
        raise BenchError("build failed (log: %s)" % log_path)


def ensure_built():
    """Configures and builds once per checkout; later calls are a no-op
    up-to-date check."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("run from the root of the source tree (no "
                         "CMakeLists.txt and src/ in %s)" % ROOT)
    os.makedirs(WORK, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg_log = os.path.join(WORK, "configure.log")
        with open(cfg_log, "wb") as out:
            rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD],
                                 stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            log(read(cfg_log)[-4000:])
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("configure failed")
    cmake_build(os.path.join(WORK, "build.log"))


def dlf_seed(seed, i):
    """dlf-run seed of campaign iteration i. The Phase I seed decides which
    contexts the 47 cycles carry, and with them how costly Phase II is
    (about +-10% between seeds), so each iteration takes the next seed of a
    sequence derived from the benchmark seed and the median is over seeds.
    dlf-run derives Phase II seeds as seed * 1000 + rep: keep it small."""
    return 1 + (seed * 64 + i) % 1000000


def storm_trace_lines(pairs, inversions):
    """Lines lockstorm writes under DLF_PRELOAD_TRACE, by construction:
    header, main's T line, M/A/R for every lock main touches, T/F for two
    workers, A/A/R/R per nested pair, the inversions, and two J lines."""
    locks = STORM_POOL + 2 * inversions
    return 1 + 1 + 3 * locks + 4 + 2 * pairs * 4 + inversions * 2 * 4 + 2


# -- Pipelines: one iteration each --------------------------------------------


class Check:
    """Counts operations and failures; records what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def run_campaign(seed, i, chk, state):
    journal = os.path.join(WORK, "campaign", "campaign.jsonl")
    if os.path.exists(journal):
        os.remove(journal)
    out = os.path.join(WORK, "campaign.out")
    r = spawn([tool("dlf-run"), CAMPAIGN_BENCH, "--campaign",
               "--jobs", str(CAMPAIGN_JOBS), "--reps", str(CAMPAIGN_REPS),
               "--seed", str(dlf_seed(seed, i)), "--journal", journal], out)
    text = read(out)
    if not chk.op(r["rc"] == 0, "dlf-run exited %d" % r["rc"]):
        return None
    m = re.search(r"phase 1 completed in \d+ sandboxed attempt\(s\), "
                  r"(\d+) potential cycle", text)
    rows = [[c.strip() for c in ln.strip().strip("|").split("|")]
            for ln in text.splitlines() if ln.startswith("| #")]
    cycles = int(m.group(1)) if m else -1
    confirmed = sum(1 for row in rows if int(row[1].split("/")[0]) > 0)
    full = all(int(row[1].split("/")[1]) == CAMPAIGN_REPS for row in rows)
    chk.op(cycles == CAMPAIGN_CYCLES == len(rows),
           "campaign reported %d cycles, expected %d"
           % (cycles, CAMPAIGN_CYCLES))
    chk.op(confirmed == CAMPAIGN_CONFIRMABLE,
           "campaign confirmed %d cycles, expected %d"
           % (confirmed, CAMPAIGN_CONFIRMABLE))
    chk.op(full and "campaign complete" in text,
           "campaign incomplete or a cycle short of %d reps" % CAMPAIGN_REPS)
    # Each repetition is an operation; hung, crashed, OOM and retried ones
    # failed. A retry that converged still leaves the counts correct.
    reps = re.search(r"reps executed (\d+)", text)
    chk.attempted += int(reps.group(1)) if reps else 0
    lost = sum(int(row[c]) for row in rows for c in (5, 6, 7))
    chk.failed += lost + sum(int(row[8]) for row in rows)
    if lost:
        chk.problems.append("%d reps hung, crashed or ran out of memory"
                            % lost)
    return dict(r, cycles=cycles, verified=confirmed)


def run_tangle(seed, i, chk, state):
    out = os.path.join(WORK, "tangle.out")
    r = spawn([tool("dlf-analyze"), state["tangle_trace"], "--predict"], out)
    text = read(out)
    if not chk.op(r["rc"] == 0, "dlf-analyze --predict exited %d" % r["rc"]):
        return None
    m = re.search(r"(\d+) potential deadlock cycle", text)
    s = re.search(r"predict: (\d+) sound", text)
    cycles = int(m.group(1)) if m else -1
    sound = int(s.group(1)) if s else -1
    exp = state["tangle_expected"]
    chk.op(cycles == exp["cycles"], "tangle: %d cycles, expected %d"
           % (cycles, exp["cycles"]))
    chk.op(sound == exp["sound"], "tangle: %d sound, expected %d"
           % (sound, exp["sound"]))
    return dict(r, cycles=cycles, verified=sound)


def capture_storm(seed, chk, preload=True):
    """Runs lockstorm, with the preload capture unless preload is False.
    Returns (spawn result, trace path)."""
    trace = os.path.join(WORK, "storm.trace")
    if os.path.exists(trace):
        os.remove(trace)
    env = dict(os.environ)
    if preload:
        env["LD_PRELOAD"] = tool("dlf_preload")
        env["DLF_PRELOAD_TRACE"] = trace
    r = spawn([tool("lockstorm"), str(seed % (1 << 64)), str(STORM_PAIRS),
               str(STORM_INVERSIONS)], os.path.join(WORK, "storm.out"), env)
    if r["rc"] == 42:
        chk.op(False, "lockstorm deadlocked for real (exit 42)")
    else:
        chk.op(r["rc"] == 0, "lockstorm exited %d" % r["rc"])
    return r, trace


def check_storm_trace(trace, chk):
    with open(trace, "rb") as f:
        lines = sum(chunk.count(b"\n") for chunk in iter(
            lambda: f.read(1 << 20), b""))
    want = storm_trace_lines(STORM_PAIRS, STORM_INVERSIONS)
    chk.op(lines == want, "storm trace has %d lines, expected %d"
           % (lines, want))
    return lines


def run_storm(seed, i, chk, state):
    cap, trace = capture_storm(seed, chk)
    if cap["rc"] != 0:
        return None
    out = os.path.join(WORK, "storm-analyze.out")
    ana = spawn([tool("dlf-analyze"), trace], out)
    check_storm_trace(trace, chk)
    text = read(out)
    if not chk.op(ana["rc"] == 0, "dlf-analyze exited %d" % ana["rc"]):
        return None
    m = re.search(r"(\d+) potential deadlock cycle", text)
    s = re.search(r"pruner: (\d+) schedulable", text)
    cycles = int(m.group(1)) if m else -1
    sched = int(s.group(1)) if s else -1
    chk.op(cycles == STORM_INVERSIONS, "storm: %d cycles, expected %d"
           % (cycles, STORM_INVERSIONS))
    chk.op(sched == STORM_INVERSIONS, "storm: %d schedulable, expected %d"
           % (sched, STORM_INVERSIONS))
    return {"rc": 0, "wall_s": cap["wall_s"] + ana["wall_s"],
            "cpu_s": cap["cpu_s"] + ana["cpu_s"],
            "rss_mb": max(cap["rss_mb"], ana["rss_mb"]),
            "cycles": cycles, "verified": sched}


PIPELINES = {"campaign-collections": run_campaign,
             "analyze-tangle": run_tangle,
             "preload-lockstorm": run_storm}


# -- Setup --------------------------------------------------------------------


def setup(workload, seed, state, traced):
    """One preparation of a run's inputs: the up-to-date check of the
    build (locating the binaries), a fresh work area, and the workload's
    own input: the journal directory, or the seeded tangle trace."""
    cmake_build(os.path.join(WORK, "build-check.log"))
    for sub in ("campaign", "layers"):
        shutil.rmtree(os.path.join(WORK, sub), ignore_errors=True)
        os.makedirs(os.path.join(WORK, sub))
    if workload == "analyze-tangle" or traced:
        path = os.path.join(WORK, "tangle.trace")
        state["tangle_expected"] = tangle.write(path, seed)
        state["tangle_trace"] = path


# -- Host context -------------------------------------------------------------


def cpu_ticks():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: fingerprint the sources instead.
    h = hashlib.sha256()
    for base in ("src", "e2ebench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build_type():
    try:
        return read(os.path.join(BUILD, "build_type.txt")).strip() or "none"
    except OSError:
        return "unknown"


# -- Measurement --------------------------------------------------------------


def iterate(pipeline, seed, chk, state, seconds, min_iters):
    """Runs the pipeline until `seconds` pass (at least min_iters times).
    A failed iteration is already counted in chk; it yields no sample."""
    samples = []
    attempts = 0
    t0 = time.perf_counter()
    while True:
        r = pipeline(seed, attempts, chk, state)
        attempts += 1
        if r is not None:
            samples.append(r)
        elapsed = time.perf_counter() - t0
        typical = (statistics.median(s["wall_s"] for s in samples)
                   if samples else elapsed / attempts)
        if attempts >= min_iters and elapsed + typical > seconds:
            break
    if not samples:
        raise BenchError("every iteration failed: " + "; ".join(chk.problems))
    return samples


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(samples, setup_s):
    """The pipelines do the same work on every iteration, and interference
    from the rest of the host only ever adds time (a long one-sided tail),
    so wall_s and cpu_s are the run's fastest iteration: the floor moves
    with the code, the tail with the neighbours. The median and tail of
    every run are printed on its context line."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (min(s["wall_s"] for s in samples), "s"),
        "cpu_s": (min(s["cpu_s"] for s in samples), "s"),
        "peak_rss_mb": (median_of(samples, "rss_mb"), "MB"),
        "cycles": (median_of(samples, "cycles"), "count"),
        "verified_cycles": (median_of(samples, "verified"), "count"),
    }


def layers_json(argv, name, chk, spans):
    """Runs one dlf-layers group; its spans are appended to spans."""
    out = os.path.join(WORK, "layers", name + ".out")
    r = spawn([tool("dlf-layers")] + argv, out)
    if not chk.op(r["rc"] == 0, "dlf-layers %s exited %d" % (name, r["rc"])):
        raise BenchError("dlf-layers %s failed: %s"
                         % (name, read(out + ".err")[-2000:]))
    doc = json.loads(read(out))
    spans.extend(dict(s, group=name) for s in doc["spans"])
    return doc


def span_s(doc, name):
    """Seconds of the first span called name."""
    return next(s["s"] for s in doc["spans"] if s["name"] == name)


def sweep(seed, chk, state):
    """One traced pass over every layer. Returns (metrics, spans, traced
    pipeline seconds per workload)."""
    m = {}
    spans = []

    # fuzzer + runtime: Phase I and runOnce on the campaign benchmark.
    fz = layers_json(["fuzzer", CAMPAIGN_BENCH, str(dlf_seed(seed, 0)),
                      str(FUZZ_SEEDS_PER_CYCLE)], "fuzzer", chk, spans)
    c = fz["counts"]
    chk.op(c["fuzzer.phase1_cycles"] == CAMPAIGN_CYCLES,
           "fuzzer phase 1 found %d cycles" % c["fuzzer.phase1_cycles"])
    reps = [s for s in fz["spans"] if s["name"] == "fuzzer.rep"]
    m["fuzzer.phase1_s"] = span_s(fz, "fuzzer.phase1")
    m["fuzzer.rep_s"] = statistics.median(s["s"] for s in reps)
    m["fuzzer.rep_cpu_s"] = statistics.median(s["cpu_s"] for s in reps)
    m["fuzzer.reproduced_share"] = c["fuzzer.reproduced"] / c["fuzzer.reps"]
    m["fuzzer.thrashes_per_rep"] = c["fuzzer.thrashes"] / c["fuzzer.reps"]
    m["runtime.steps_per_rep"] = c["runtime.steps"] / c["fuzzer.reps"]
    m["runtime.pauses_per_rep"] = c["runtime.pauses"] / c["fuzzer.reps"]

    # campaign: CampaignRunner::run as dlf-run --campaign drives it.
    journal = os.path.join(WORK, "layers", "campaign.jsonl")
    if os.path.exists(journal):
        os.remove(journal)
    cp = layers_json(["campaign", CAMPAIGN_BENCH, str(dlf_seed(seed, 0)),
                      str(CAMPAIGN_REPS),
                      str(CAMPAIGN_JOBS), journal], "campaign", chk, spans)
    c = cp["counts"]
    chk.op(c["campaign.cycles"] == CAMPAIGN_CYCLES
           and c["campaign.confirmed"] == CAMPAIGN_CONFIRMABLE,
           "in-process campaign: %d cycles, %d confirmed"
           % (c["campaign.cycles"], c["campaign.confirmed"]))
    chk.failed += c["campaign.failed_reps"] + c["campaign.retries"]
    run_s = span_s(cp, "campaign.run")
    m["campaign.run_s"] = run_s
    m["campaign.phase2_s"] = c["campaign.phase2_s"]
    m["campaign.phase1_s"] = run_s - c["campaign.phase2_s"]
    m["campaign.child_cpu_s"] = c["campaign.child_cpu_s"]
    m["campaign.lane_busy_share"] = c["campaign.rep_wall_s"] / (
        c["campaign.jobs"] * c["campaign.phase2_s"])
    m["campaign.reps"] = c["campaign.reps"]
    m["campaign.retries"] = c["campaign.retries"]
    m["campaign.journal_kb"] = os.path.getsize(journal) / 1024.0

    # analysis + igoodlock on the tangle trace.
    an = layers_json(["analysis", state["tangle_trace"], "1"], "tangle", chk,
                     spans)
    c = an["counts"]
    exp = state["tangle_expected"]
    chk.op(c["analysis.events"] == exp["events"]
           and c["igoodlock.truncated"] == 0
           and c["igoodlock.cycles"] == c["igoodlock.cycles_j3"]
           == exp["cycles"]
           and c["analysis.sound"] == c["analysis.sound_j3"] == exp["sound"],
           "in-process tangle analysis: %r" % c)
    read_s = span_s(an, "analysis.read_trace")
    predict_s = span_s(an, "analysis.predict")
    m["analysis.read_trace_s"] = read_s
    m["analysis.events_per_s"] = c["analysis.events"] / read_s
    m["analysis.logbuilder_s"] = span_s(an, "analysis.logbuilder")
    m["igoodlock.entries"] = c["igoodlock.entries"]
    m["igoodlock.closure_s"] = span_s(an, "igoodlock.closure")
    m["igoodlock.chains"] = c["igoodlock.chains"]
    m["igoodlock.cycles"] = c["igoodlock.cycles"]
    m["igoodlock.closure_j3_s"] = span_s(an, "igoodlock.closure_j3")
    m["analysis.prune_s"] = span_s(an, "analysis.prune")
    m["analysis.predict_s"] = predict_s
    m["analysis.predict_j3_s"] = span_s(an, "analysis.predict_j3")
    m["analysis.sound_share"] = (c["analysis.sound"]
                                 / c["analysis.predict_cycles"])

    # interpose: the storm without and with capture, then the analyzer.
    native, _ = capture_storm(seed, chk, preload=False)
    cap, trace = capture_storm(seed, chk)
    if cap["rc"] != 0:
        raise BenchError("lockstorm capture failed: "
                         + "; ".join(chk.problems))
    events = check_storm_trace(trace, chk)
    ana = spawn([tool("dlf-analyze"), trace],
                os.path.join(WORK, "layers", "storm-analyze.out"))
    chk.op(ana["rc"] == 0, "dlf-analyze on the storm trace exited %d"
           % ana["rc"])
    st = layers_json(["analysis", trace, "0"], "storm", chk, spans)
    chk.op(st["counts"]["igoodlock.cycles"] == STORM_INVERSIONS,
           "in-process storm analysis found %d cycles"
           % st["counts"]["igoodlock.cycles"])
    for name, r in (("native", native), ("capture", cap), ("analyze", ana)):
        spans.append({"name": "interpose." + name, "parent": "interpose",
                      "s": r["wall_s"], "cpu_s": r["cpu_s"],
                      "group": "storm"})
    m["interpose.native_s"] = native["wall_s"]
    m["interpose.capture_s"] = cap["wall_s"]
    m["interpose.ns_per_event"] = ((cap["wall_s"] - native["wall_s"])
                                   / events * 1e9)
    m["interpose.trace_mb"] = os.path.getsize(trace) / 1e6
    m["interpose.analyze_s"] = ana["wall_s"]
    m["analysis.storm_read_trace_s"] = span_s(st, "analysis.read_trace")
    m["analysis.storm_logbuilder_s"] = span_s(st, "analysis.logbuilder")

    # The traced counterpart of each workload's pipeline: the same calls
    # the tool makes, timed in process.
    storm_analyze = sum(span_s(st, n) for n in (
        "analysis.read_trace", "analysis.logbuilder", "igoodlock.closure",
        "analysis.prune"))
    traced = {"campaign-collections": run_s,
              "analyze-tangle": read_s + predict_s,
              "preload-lockstorm": cap["wall_s"] + storm_analyze}
    return m, spans, traced


PER_LAYER_UNITS = {
    "fuzzer.phase1_s": "s", "fuzzer.rep_s": "s", "fuzzer.rep_cpu_s": "s",
    "fuzzer.reproduced_share": "ratio", "fuzzer.thrashes_per_rep": "count",
    "runtime.steps_per_rep": "count", "runtime.pauses_per_rep": "count",
    "campaign.run_s": "s", "campaign.phase1_s": "s", "campaign.phase2_s": "s",
    "campaign.child_cpu_s": "s", "campaign.lane_busy_share": "ratio",
    "campaign.reps": "count", "campaign.retries": "count",
    "campaign.journal_kb": "KiB",
    "analysis.read_trace_s": "s", "analysis.events_per_s": "1/s",
    "analysis.logbuilder_s": "s", "igoodlock.entries": "count",
    "igoodlock.closure_s": "s", "igoodlock.chains": "count",
    "igoodlock.cycles": "count", "igoodlock.closure_j3_s": "s",
    "analysis.prune_s": "s", "analysis.predict_s": "s",
    "analysis.predict_j3_s": "s", "analysis.sound_share": "ratio",
    "analysis.storm_read_trace_s": "s", "analysis.storm_logbuilder_s": "s",
    "interpose.native_s": "s", "interpose.capture_s": "s",
    "interpose.ns_per_event": "ns", "interpose.trace_mb": "MB",
    "interpose.analyze_s": "s",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
    "trace.overhead_share": "ratio",
}


def traced_run(workload, seed, chk, state, seconds):
    """Untraced pipeline for part of the budget, then traced sweeps."""
    t0 = time.perf_counter()
    # Every untraced iteration uses the inputs the sweep uses (campaign
    # seed index 0), so the two timings compare like with like.
    def same_inputs(seed, _, chk, state):
        return PIPELINES[workload](seed, 0, chk, state)

    samples = iterate(same_inputs, seed, chk, state, seconds * 0.4, 2)
    untraced = median_of(samples, "wall_s")
    sweeps, all_spans, took = [], [], []
    while True:
        t = time.perf_counter()
        metrics, spans, traced = sweep(seed, chk, state)
        took.append(time.perf_counter() - t)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced[workload]
        metrics["trace.overhead_share"] = traced[workload] / untraced - 1.0
        sweeps.append(metrics)
        all_spans.append(spans)
        if time.perf_counter() - t0 + statistics.median(took) > seconds:
            break
    with open(os.path.join(WORK, "spans-%s-%d.json" % (workload, seed)),
              "w") as f:
        json.dump({"workload": workload, "seed": seed, "sweeps": all_spans}, f)
    return {k: (statistics.median(s[k] for s in sweeps), u)
            for k, u in PER_LAYER_UNITS.items()}, len(sweeps)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        ensure_built()
        state, chk = {}, Check()
        setup_times = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            setup(args.workload, args.seed, state, args.trace == 1)
            setup_times.append(time.perf_counter() - t)
        steal0, total0 = cpu_ticks()
        if args.trace:
            metrics, sweeps = traced_run(args.workload, args.seed, chk, state,
                                         args.seconds)
            iterations = "%d sweeps" % sweeps
            samples_s = {}
        else:
            samples = iterate(PIPELINES[args.workload], args.seed, chk, state,
                              args.seconds, MIN_ITERATIONS)
            metrics = end_to_end(samples, statistics.median(setup_times))
            iterations = len(samples)
            samples_s = {}
            for k in ("wall_s", "cpu_s"):
                v = sorted(x[k] for x in samples)
                samples_s[k] = {"n": len(v), "min": v[0],
                                "median": statistics.median(v),
                                "p90": v[int(0.9 * (len(v) - 1))],
                                "max": v[-1]}
        steal1, total1 = cpu_ticks()
    except BenchError as e:
        log("e2ebench: error: %s" % e)
        return 1

    hz = os.sysconf("SC_CLK_TCK")
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iterations": iterations, "nproc": os.cpu_count(),
        "build_type": build_type(), "revision": revision(),
        "steal_s": (steal1 - steal0) / hz,
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "loadavg": os.getloadavg()[0], "setup_samples_s": setup_times,
        "samples": samples_s,
    }
    print("context " + json.dumps(context))
    for name, (value, unit) in metrics.items():
        print("metric %-30s %14.6f %s" % (name, value, unit))
    for p in chk.problems:
        print("problem " + p)
    print(json.dumps({
        "correct": not chk.problems,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
