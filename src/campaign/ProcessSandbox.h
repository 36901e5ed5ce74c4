//===- campaign/ProcessSandbox.h - Fault-isolated child runs ----*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one unit of work in a forked, watchdog-guarded child process. The
/// program under test is deadlock-prone *by design*: a Record-mode run that
/// truly deadlocks blocks forever, a buggy workload can crash, and a
/// livelocked Active run can spin. Fork isolation turns each of those into
/// a classified outcome instead of a hung or dead campaign.
///
/// Guarantees the previous ad-hoc harness (runForkedWithTimeout) lacked:
///  * SIGTERM -> SIGKILL escalation with a grace period, so children that
///    can unwind do, and children that cannot are still collected,
///  * EINTR-safe waitpid loops and unconditional reaping (no zombies),
///  * optional rlimit caps on CPU time and address space, with address-
///    space exhaustion classified separately (the child maps bad_alloc to
///    a reserved exit code),
///  * a result pipe the child writes its payload to (drained concurrently,
///    so a full pipe can never wedge the child) and a bounded stderr
///    capture for crash triage.
///
/// Two entry points share one implementation: the blocking runInSandbox
/// (start one child, pump it to completion) and the non-blocking
/// SandboxProcess (start / poll / reap), which the campaign WorkerPool
/// uses to keep N children in flight from a single dispatch thread.
///
/// A child that does several units of work in a row (a campaign lane's
/// batch of repetitions) is started *framed*: it reports each unit as one
/// writeFrame frame, the parent takes the frames as they complete, and the
/// watchdog and the payload cap apply per frame, so a long batch of quick
/// units is never mistaken for one hung unit.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_CAMPAIGN_PROCESSSANDBOX_H
#define DLF_CAMPAIGN_PROCESSSANDBOX_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/types.h>

namespace dlf {
namespace campaign {

/// Reserved child exit codes (outside the 0..100 range workloads use).
/// The child wrapper maps C++-level failures onto these so the parent can
/// triage without a debugger attached.
inline constexpr int OomExitCode = 113;      ///< std::bad_alloc escaped
inline constexpr int ExceptionExitCode = 112; ///< any other exception escaped

/// Resource caps and watchdog settings for one sandboxed run.
struct SandboxLimits {
  /// Wall-clock watchdog; 0 disables (the child may then run forever).
  /// For a framed child it restarts at every complete frame, so it bounds
  /// one unit of work, not the child's whole life.
  uint64_t TimeoutMs = 10'000;

  /// Grace period between SIGTERM and SIGKILL when the watchdog fires.
  uint64_t GraceMs = 500;

  /// RLIMIT_CPU in seconds; 0 inherits the parent's limit.
  uint64_t CpuSeconds = 0;

  /// RLIMIT_AS in MiB; 0 inherits. An allocation past this cap surfaces
  /// as SandboxStatus::OutOfMemory.
  uint64_t AddressSpaceMb = 0;

  /// Upper bound on the payload the parent accumulates from the result
  /// pipe, per frame for a framed child (excess is discarded, not blocked
  /// on).
  size_t MaxPayloadBytes = 1 << 20;

  /// Capture the child's stderr (bounded tail) for crash triage.
  bool CaptureStderr = false;

  /// Bytes of stderr tail kept when CaptureStderr is on.
  size_t MaxStderrBytes = 4096;
};

/// Process-level classification of one sandboxed run.
enum class SandboxStatus {
  Completed,   ///< child exited 0
  Exited,      ///< child exited nonzero (other than the reserved codes)
  Signaled,    ///< child was terminated by a signal it raised itself
  Hung,        ///< watchdog expired; child was killed by the sandbox
  OutOfMemory, ///< child exceeded the address-space cap (reserved code)
  ForkFailed,  ///< fork() itself failed; nothing ran
};

/// Returns a human-readable name for \p Status.
const char *sandboxStatusName(SandboxStatus Status);

/// Everything the parent learns about one sandboxed run.
struct SandboxResult {
  SandboxStatus Status = SandboxStatus::ForkFailed;

  /// Exit code (valid for Completed / Exited / OutOfMemory).
  int ExitCode = 0;

  /// Terminating signal (valid for Signaled and Hung).
  int TermSignal = 0;

  /// True when the child ignored SIGTERM and had to be SIGKILLed.
  bool TermEscalated = false;

  /// Wall-clock duration of the child, in milliseconds; for a framed
  /// child, since its last frame (the window the watchdog was timing).
  double WallMs = 0.0;

  /// CPU time the child consumed (user + system, from wait4's rusage), in
  /// milliseconds. The campaign report sums this across children to show
  /// wall vs. cumulative CPU under parallel execution.
  double CpuMs = 0.0;

  /// Bytes the child wrote to the result pipe (possibly truncated at
  /// MaxPayloadBytes). Empty for a framed child: its frames are taken
  /// with SandboxProcess::takeFrames as they complete.
  std::string Payload;

  /// Bounded tail of the child's stderr (when CaptureStderr was set).
  std::string StderrTail;

  /// Pid the child ran as. The child is always reaped before
  /// runInSandbox returns; exposed so tests can assert there is no zombie.
  pid_t ChildPid = -1;

  /// One-line triage summary ("crashed: SIGABRT", "exited 3", ...).
  std::string triage() const;
};

/// One sandboxed child, driven without blocking: start() forks it, poll()
/// pumps its pipes / advances the watchdog / reaps it when it exits, and
/// takeResult() yields the classification. The watchdog needs poll() to be
/// called every few milliseconds while the child runs; appendPollFds()
/// exposes the read ends so a dispatcher can sleep in ::poll across many
/// children and still wake instantly on output.
class SandboxProcess {
public:
  SandboxProcess() = default;
  ~SandboxProcess();
  SandboxProcess(const SandboxProcess &) = delete;
  SandboxProcess &operator=(const SandboxProcess &) = delete;

  /// Forks the child (see runInSandbox for \p Fn's contract). Returns
  /// false when pipe/fork creation fails; the process is then finished()
  /// with SandboxStatus::ForkFailed. A \p Framed child writes its payload
  /// as writeFrame frames.
  bool start(const std::function<int(int PayloadFd)> &Fn,
             const SandboxLimits &Limits, bool Framed = false);

  /// True once the child is reaped (or start failed); the result is final.
  bool finished() const { return Finished; }

  pid_t childPid() const { return Result.ChildPid; }

  /// Non-blocking pump: drains the pipes, fires the SIGTERM -> SIGKILL
  /// watchdog when due, and reaps an exited child. Returns finished().
  bool poll();

  /// Appends this child's readable pipe fds to \p Fds (for a combined
  /// ::poll sleep). Fds at EOF are skipped.
  void appendPollFds(std::vector<struct pollfd> &Fds) const;

  /// SIGKILLs and reaps the child immediately (used to cancel speculative
  /// work). The result is marked finished but is not meaningful.
  void forceKill();

  const SandboxResult &result() const { return Result; }
  SandboxResult takeResult() { return std::move(Result); }

  /// The frames a framed child completed since the last call, in order.
  std::vector<std::string> takeFrames();

private:
  /// Reassembles writeFrame frames from the payload stream. A body longer
  /// than Cap keeps its first Cap bytes; a malformed length ends framing
  /// (the rest of the stream is ignored).
  struct FrameReader {
    size_t Cap = 0;
    std::string Length; ///< digits of the length being read
    uint64_t Left = 0;  ///< body bytes still to come
    bool InBody = false;
    bool Broken = false;
    std::string Body;
    std::vector<std::string> Done;
    void feed(const char *Data, size_t Size);
  };

  struct Drain {
    int Fd = -1;
    std::string *Out = nullptr;
    FrameReader *Frames = nullptr; ///< framed payload: feed this instead
    size_t Cap = 0;
    bool KeepTail = false;
    bool Eof = false;
    void pump();
  };

  void pumpPayload();
  double elapsedMs() const;
  void finalize(int Status);
  void closePipes();

  SandboxLimits Limits;
  /// Start of the watchdog's window: the fork, then each complete frame.
  std::chrono::steady_clock::time_point StartTime;
  enum class Phase { Running, Termed, Killed } Ph = Phase::Running;
  double TermAtMs = 0;
  bool TimedOut = false;
  bool Started = false;
  bool Finished = false;
  int PayloadFd = -1;
  int StderrFd = -1;
  Drain PayloadDrain, StderrDrain;
  FrameReader Frames;
  SandboxResult Result;
};

/// Writes \p Body as one frame ("<byte count>\n<body>") on a framed
/// child's result pipe. Returns false if the write failed.
bool writeFrame(int Fd, const std::string &Body);

/// Runs \p Fn in a forked child under \p Limits. \p Fn receives the write
/// end of the result pipe and returns the child's exit code; exceptions
/// escaping \p Fn are mapped to the reserved exit codes above. The child
/// exits via _exit (no atexit handlers run), so the parent's state is
/// never perturbed. With \p OnFrame the child is framed: it writes
/// writeFrame frames, and each is handed to \p OnFrame as it completes.
/// POSIX-only.
SandboxResult
runInSandbox(const std::function<int(int PayloadFd)> &Fn,
             const SandboxLimits &Limits = {},
             const std::function<void(std::string Frame)> &OnFrame = {});

} // namespace campaign
} // namespace dlf

#endif // DLF_CAMPAIGN_PROCESSSANDBOX_H
