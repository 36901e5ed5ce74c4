//===- faultinject/FaultInject.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded, deterministic fault-injection plane for the campaign runtime.
/// A FaultPlan is a list of site-keyed triggers parsed from `--faults` /
/// `DLF_FAULTS` (or generated by `--chaos SEED`); the campaign code consults
/// the process-global plan at a fixed set of injection sites and fails
/// exactly where the plan says to. Everything is a pure function of the plan
/// (and, for probability triggers, of the plan seed plus the cycle/rep
/// identity), so a failing chaos run replays exactly from its seed.
///
/// Grammar (clauses separated by `;` or `,`):
///
///   plan    := clause (';' clause)*
///   clause  := 'seed=' N | site [':' action] '@' trigger
///   trigger := N            Nth hit of the site in this process (1-based)
///            | 'rep=' N     the child executing phase-2 rep N (attempt 0)
///            | 'p=' F       seeded probability per hit / per rep
///            | 'always'     every hit
///
/// Sites and their actions:
///
///   journal.open    enospc|eio|eacces   open of the campaign journal fails
///   journal.write   enospc|eio          the buffered record write fails
///   journal.fsync   enospc|eio          the fsync that ends a journal
///                                       commit round fails (one per round,
///                                       not per record)
///   journal.torn    -                   half a record is written, then the
///                                       process dies (simulates power loss)
///   worker.spawn    eagain|enomem       a campaign launch fails as if its
///                                       fork had: Phase I's child, or a
///                                       Phase II batch handed to a lane
///   runner.kill     -                   SIGKILL the runner right after the
///                                       Nth rep record is committed (and
///                                       synced)
///   child.crash     abort|segv|kill|exit  the phase-2 child dies mid-rep
///   child.hang      -                   the phase-2 child hangs until the
///                                       sandbox watchdog fires
///   sidecar.truncate -                  the child's telemetry section is cut
///                                       off mid-way (torn write)
///   sidecar.missing  -                  the section is never written
///   ring.write.halfslot -               the event-ring writer dies after
///                                       claiming a slot and sequence number
///                                       but before the payload (the observer
///                                       must classify it as half-written)
///
/// Determinism notes. Ordinal (`@N`) triggers count hits per process and per
/// site: parent sites (journal.*, worker.spawn, runner.kill) count events in
/// the runner, child sites count phase-2 repetition attempts in the order
/// the runner hands them to children (a batch's reps in rep order at its
/// launch; a rep handed back after its batch's child died counts again when
/// it is dispatched again) — which makes ordinal child triggers
/// deterministic for `--jobs 1` but launch-order-dependent otherwise; use
/// `rep=`/`p=` triggers when the plan must be jobs-invariant. `rep=` and `p=`
/// child triggers are keyed by the (cycle, rep) identity, so they fire for
/// the same logical work regardless of sharding, retries (crash/hang fire on
/// attempt 0 only; sidecar faults apply to every attempt of the rep), or
/// resume. A `p=` worker.spawn trigger is keyed by the launch: a phase-2
/// launch by the (cycle, rep, attempt) of its first repetition, so it fails
/// the same launch whatever order the lanes dispatch in, and a phase-1
/// launch by its attempt.
///
/// This header is standard-library-only on purpose: Sidecar.cpp is compiled
/// into the LD_PRELOAD DSO, which must stay a self-contained interposer.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_FAULTINJECT_FAULTINJECT_H
#define DLF_FAULTINJECT_FAULTINJECT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dlf {
namespace faultinject {

/// How a clause decides whether its site fires.
enum class Trigger {
  Ordinal,     ///< Nth hit of the site in this process (1-based).
  Rep,         ///< The phase-2 child running rep N (first attempt).
  Probability, ///< Seeded coin flip per hit / per (cycle, rep).
  Always,      ///< Every hit.
};

/// One parsed `site[:action]@trigger` clause.
struct FaultSpec {
  std::string Site;
  std::string Action; ///< Empty means the site's default action.
  Trigger Kind = Trigger::Ordinal;
  uint64_t N = 0; ///< Ordinal hit count or rep index.
  double P = 0.0; ///< Probability for Trigger::Probability.
};

/// Fault directives for one phase-2 repetition attempt, decided by the
/// parent when it launches the child that runs it (the parent owns the plan
/// state; the child just applies these before that repetition).
struct ChildFaults {
  std::string CrashAction; ///< Empty = no crash; else abort/segv/kill/exit.
  bool Hang = false;
  bool SidecarTruncate = false;
  bool SidecarMissing = false;

  bool any() const {
    return !CrashAction.empty() || Hang || SidecarTruncate || SidecarMissing;
  }
};

/// A parsed fault plan plus its per-site hit counters.
class FaultPlan {
public:
  /// Parses \p Text and appends its clauses to this plan (so a chaos plan
  /// can be extended with explicit `--faults` clauses). Returns false and
  /// sets \p Error on the first malformed clause; the plan is unchanged on
  /// failure.
  bool parse(const std::string &Text, std::string *Error);

  /// Generates a randomized chaos plan from \p Seed: probability triggers
  /// for child crashes, hangs, spawn failures, and sidecar truncation, plus
  /// (for some seeds) a one-shot journal fsync failure. runner.kill is never
  /// generated — kill/resume loops are driven explicitly by scripts/chaos.sh
  /// so each kill can be followed by a checked resume.
  static FaultPlan chaos(uint64_t Seed);

  bool empty() const { return Specs.empty(); }
  uint64_t seed() const { return Seed; }
  void setSeed(uint64_t S) { Seed = S; }

  /// Renders the plan back in the grammar above (stable clause order).
  std::string describe() const;

  /// Records one hit of parent-side \p Site and returns the matching spec if
  /// a clause fires, else nullptr. Ordinal, probability, and always triggers
  /// participate; rep triggers never match parent sites.
  const FaultSpec *hit(const std::string &Site);

  /// Records one hit of worker.spawn for the phase-2 launch whose first
  /// repetition attempt is (\p Cycle, \p Rep, \p Attempt), or for attempt
  /// \p Attempt of phase 1 when \p Cycle is PhaseOneLaunch, and returns
  /// the matching spec, or nullptr. Ordinal and always triggers count hits
  /// as hit() does; probability triggers are keyed by that identity.
  const FaultSpec *spawnHit(uint64_t Cycle, uint64_t Rep, uint64_t Attempt);

  /// Decides every child-site fault for the phase-2 attempt (\p Cycle,
  /// \p Rep, \p Attempt) about to be handed to a child. Advances ordinal
  /// counters for child sites (one hit per repetition handed out).
  ChildFaults childFaults(uint64_t Cycle, uint64_t Rep, uint64_t Attempt);

  const std::vector<FaultSpec> &specs() const { return Specs; }

  /// Hits of \p Site counted so far (only a non-empty plan counts).
  uint64_t hits(const std::string &Site) const {
    auto It = Hits.find(Site);
    return It == Hits.end() ? 0 : It->second;
  }

private:
  bool fires(const FaultSpec &Spec, uint64_t HitIndex);
  const FaultSpec *firstFiring(const std::string &Site, uint64_t HitIndex,
                               const uint64_t *Identity);

  std::vector<FaultSpec> Specs;
  std::map<std::string, uint64_t> Hits;
  uint64_t Seed = 0;
};

/// The process-global plan. Lazily parsed from `DLF_FAULTS` on first access
/// (a malformed value is reported to stderr once and ignored); forked
/// children inherit the parent's plan and counters by copy-on-write.
FaultPlan &plan();

/// Replaces the global plan (CLI `--faults` / `--chaos`, tests). Passing a
/// default-constructed plan disables injection.
void setPlan(FaultPlan P);

/// True when any clause is loaded — injection sites use this as the fast
/// bail-out before doing any work.
bool enabled();

/// Parent-side helper for errno sites: returns the errno to inject at
/// \p Site (counting one hit), or 0 when no clause fires. \p DefaultErrno is
/// used for clauses written without an explicit action.
int failErrno(const char *Site, int DefaultErrno);

/// The cycle index that names a phase-1 launch to spawnHit and
/// spawnFailErrno (phase 1 has no cycle or repetition of its own).
inline constexpr uint64_t PhaseOneLaunch = 0xFFFFFFFF;

/// Parent-side helper for the worker.spawn site at every campaign launch
/// (see FaultPlan::spawnHit): the errno to inject, or 0.
int spawnFailErrno(uint64_t Cycle, uint64_t Rep, uint64_t Attempt);

/// Parent-side helper for action-less sites (journal.torn, runner.kill):
/// counts one hit and returns true when a clause fires.
bool fires(const char *Site);

/// Applies \p CF inside a phase-2 child, right before the repetition it was
/// decided for: records the sidecar directives for takeChildTelemetry, then
/// crashes or hangs if asked to.
/// Also marks the process as a campaign child so takeChildTelemetry stops
/// consulting the (inherited) global plan directly.
void applyChildFaults(const ChildFaults &CF);

/// What takeChildTelemetry should do: 0 = write normally, 1 = truncate
/// mid-section, 2 = skip the write entirely. In a campaign child this
/// replays the directives from applyChildFaults; in any other process it
/// consults the global plan (sites sidecar.truncate / sidecar.missing).
int sidecarWriteFault();

} // namespace faultinject
} // namespace dlf

#endif // DLF_FAULTINJECT_FAULTINJECT_H
