//===- campaign/ProcessSandbox.cpp - Fault-isolated child runs --------------===//

#include "campaign/ProcessSandbox.h"

#include "runtime/ThreadPool.h"
#include "support/Retry.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <sstream>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

using namespace dlf;
using namespace dlf::campaign;

const char *dlf::campaign::sandboxStatusName(SandboxStatus Status) {
  switch (Status) {
  case SandboxStatus::Completed:
    return "completed";
  case SandboxStatus::Exited:
    return "crashed-exit";
  case SandboxStatus::Signaled:
    return "crashed-signal";
  case SandboxStatus::Hung:
    return "hung";
  case SandboxStatus::OutOfMemory:
    return "oom";
  case SandboxStatus::ForkFailed:
    return "fork-failed";
  }
  return "unknown";
}

std::string SandboxResult::triage() const {
  std::ostringstream OS;
  switch (Status) {
  case SandboxStatus::Completed:
    OS << "completed in " << WallMs << " ms";
    break;
  case SandboxStatus::Exited:
    OS << "exited " << ExitCode;
    break;
  case SandboxStatus::Signaled: {
    const char *Name = strsignal(TermSignal);
    OS << "crashed: signal " << TermSignal << " (" << (Name ? Name : "?")
       << ")";
    break;
  }
  case SandboxStatus::Hung:
    OS << "hung: watchdog expired after " << WallMs << " ms"
       << (TermEscalated ? " (SIGTERM ignored; escalated to SIGKILL)" : "");
    break;
  case SandboxStatus::OutOfMemory:
    OS << "oom: std::bad_alloc escaped the child";
    break;
  case SandboxStatus::ForkFailed:
    OS << "fork failed";
    break;
  }
  if (!StderrTail.empty())
    OS << "; stderr tail: " << StderrTail;
  return OS.str();
}

namespace {

/// wait4 that retries on EINTR (a signal delivered to the campaign
/// runner must not leak a zombie or misclassify the child). rusage gives
/// the reaped child's CPU time for the throughput report.
pid_t wait4EintrSafe(pid_t Pid, int *Status, int Flags, struct rusage *RU) {
  return retryEintr([&] { return wait4(Pid, Status, Flags, RU); });
}

double rusageCpuMs(const struct rusage &RU) {
  auto ToMs = [](const struct timeval &TV) {
    return static_cast<double>(TV.tv_sec) * 1000.0 +
           static_cast<double>(TV.tv_usec) / 1000.0;
  };
  return ToMs(RU.ru_utime) + ToMs(RU.ru_stime);
}

} // namespace

bool dlf::campaign::writeFrame(int Fd, const std::string &Body) {
  std::string Frame = std::to_string(Body.size());
  Frame += '\n';
  Frame += Body;
  return writeFully(Fd, Frame.data(), Frame.size());
}

void SandboxProcess::FrameReader::feed(const char *Data, size_t Size) {
  while (Size && !Broken) {
    if (!InBody) {
      char C = *Data++;
      --Size;
      if (C != '\n') {
        // A length is at most 20 digits; anything else is not a frame.
        if (C < '0' || C > '9' || Length.size() == 20)
          Broken = true;
        Length += C;
        continue;
      }
      if (Length.empty()) {
        Broken = true;
        continue;
      }
      Left = std::strtoull(Length.c_str(), nullptr, 10);
      Length.clear();
      InBody = true;
    }
    size_t Take = static_cast<size_t>(std::min<uint64_t>(Left, Size));
    if (Body.size() < Cap)
      Body.append(Data, std::min(Take, Cap - Body.size()));
    Data += Take;
    Size -= Take;
    Left -= Take;
    if (Left == 0) {
      Done.push_back(std::move(Body));
      Body.clear();
      InBody = false;
    }
  }
}

/// Reads Fd until it would block, so the child never blocks on a full
/// pipe: the FrameReader caps each frame, and the stderr tail keeps its
/// last Cap bytes.
void SandboxProcess::Drain::pump() {
  if (Fd < 0 || Eof)
    return;
  char Buf[4096];
  for (;;) {
    ssize_t N = retryEintr([&] { return read(Fd, Buf, sizeof(Buf)); });
    if (N > 0 && Frames) {
      Frames->feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N > 0) {
      Tail->append(Buf, static_cast<size_t>(N));
      if (Tail->size() > Cap)
        Tail->erase(0, Tail->size() - Cap);
      continue;
    }
    if (N == 0) {
      Eof = true;
      return;
    }
    return; // EAGAIN (or a real error): nothing more right now
  }
}

SandboxProcess::~SandboxProcess() {
  if (Started && !Finished)
    forceKill();
  closePipes();
}

double SandboxProcess::elapsedMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - StartTime)
      .count();
}

void SandboxProcess::closePipes() {
  if (PayloadFd >= 0) {
    close(PayloadFd);
    PayloadFd = -1;
    PayloadDrain.Fd = -1;
  }
  if (StderrFd >= 0) {
    close(StderrFd);
    StderrFd = -1;
    StderrDrain.Fd = -1;
  }
}

bool SandboxProcess::start(const std::function<int(int PayloadFd)> &Fn,
                           const SandboxLimits &L) {
  Limits = L;
  int PayloadPipe[2] = {-1, -1};
  int StderrPipe[2] = {-1, -1};
  if (pipe(PayloadPipe) != 0) {
    Finished = true;
    return false;
  }
  if (Limits.CaptureStderr && pipe(StderrPipe) != 0) {
    close(PayloadPipe[0]);
    close(PayloadPipe[1]);
    Finished = true;
    return false;
  }

  StartTime = std::chrono::steady_clock::now();
  pid_t Parent = getpid();
  pid_t Child = fork();
  if (Child < 0) {
    close(PayloadPipe[0]);
    close(PayloadPipe[1]);
    if (Limits.CaptureStderr) {
      close(StderrPipe[0]);
      close(StderrPipe[1]);
    }
    Finished = true;
    return false;
  }

  if (Child == 0) {
    // Child. Restore default signal dispositions (the campaign runner may
    // have a SIGINT handler armed) before any user code runs.
    signal(SIGTERM, SIG_DFL);
    signal(SIGINT, SIG_DFL);
#ifdef __linux__
    // If the runner dies abruptly (SIGKILL, chaos runner.kill injection)
    // its watchdogs die with it; tie the child's lifetime to the parent so
    // an orphaned hang can never outlive the campaign.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != Parent)
      _exit(125); // parent died in the fork/prctl window
#else
    (void)Parent;
#endif
    close(PayloadPipe[0]);
    if (Limits.CaptureStderr) {
      close(StderrPipe[0]);
      dup2(StderrPipe[1], STDERR_FILENO);
      close(StderrPipe[1]);
    }

    int Code;
    try {
      Code = Fn(PayloadPipe[1]);
    } catch (const std::bad_alloc &) {
      Code = OomExitCode;
    } catch (...) {
      Code = ExceptionExitCode;
    }
    // _exit: no atexit handlers, no flushes of parent-inherited state. The
    // parked OS threads of the managed threads the child ran go first.
    retireIdlePooledThreads();
    _exit(Code);
  }

  // Parent.
  Started = true;
  Result.ChildPid = Child;
  close(PayloadPipe[1]);
  if (Limits.CaptureStderr)
    close(StderrPipe[1]);
  PayloadFd = PayloadPipe[0];
  StderrFd = Limits.CaptureStderr ? StderrPipe[0] : -1;
  fcntl(PayloadFd, F_SETFL, O_NONBLOCK);
  if (StderrFd >= 0)
    fcntl(StderrFd, F_SETFL, O_NONBLOCK);

  Frames.Cap = Limits.MaxPayloadBytes;
  PayloadDrain = {PayloadFd, &Frames, nullptr, 0, /*Eof=*/false};
  StderrDrain = {StderrFd, nullptr, &Result.StderrTail, Limits.MaxStderrBytes,
                 /*Eof=*/false};
  return true;
}

void SandboxProcess::pumpPayload() {
  size_t Before = Frames.Done.size();
  PayloadDrain.pump();
  // Every complete frame is a unit of work done: the watchdog's window
  // restarts, unless it has already fired.
  if (Frames.Done.size() != Before && Ph == Phase::Running)
    StartTime = std::chrono::steady_clock::now();
}

std::vector<std::string> SandboxProcess::takeFrames() {
  std::vector<std::string> Out = std::move(Frames.Done);
  Frames.Done.clear();
  return Out;
}

void SandboxProcess::finalize(int Status) {
  Result.WallMs = elapsedMs();
  // Final drain: the child may have written between our last pump and its
  // exit; EOF is guaranteed now that the write ends are closed.
  pumpPayload();
  StderrDrain.pump();
  closePipes();
  Finished = true;

  if (WIFSIGNALED(Status)) {
    Result.TermSignal = WTERMSIG(Status);
    // A SIGTERM/SIGKILL death after our watchdog fired is a hang; any
    // other signal (or a signal before the timeout) is the child's own
    // crash.
    if (TimedOut &&
        (Result.TermSignal == SIGTERM || Result.TermSignal == SIGKILL))
      Result.Status = SandboxStatus::Hung;
    else
      Result.Status = SandboxStatus::Signaled;
    return;
  }

  Result.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  if (TimedOut) {
    // The child unwound on SIGTERM and exited on its own: still a hang —
    // the watchdog expired; the exit code is kept for triage only.
    Result.Status = SandboxStatus::Hung;
  } else if (Result.ExitCode == 0)
    Result.Status = SandboxStatus::Completed;
  else if (Result.ExitCode == OomExitCode)
    Result.Status = SandboxStatus::OutOfMemory;
  else
    Result.Status = SandboxStatus::Exited;
}

bool SandboxProcess::poll() {
  if (Finished)
    return true;
  pumpPayload();
  StderrDrain.pump();

  int Status = 0;
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  pid_t Done = wait4EintrSafe(Result.ChildPid, &Status, WNOHANG, &RU);
  if (Done == Result.ChildPid) {
    Result.CpuMs = rusageCpuMs(RU);
    finalize(Status);
    return true;
  }

  double Now = elapsedMs();
  if (Ph == Phase::Running && Limits.TimeoutMs &&
      Now >= static_cast<double>(Limits.TimeoutMs)) {
    TimedOut = true;
    kill(Result.ChildPid, SIGTERM);
    TermAtMs = Now;
    Ph = Phase::Termed;
  } else if (Ph == Phase::Termed &&
             Now - TermAtMs >= static_cast<double>(Limits.GraceMs)) {
    kill(Result.ChildPid, SIGKILL);
    Ph = Phase::Killed;
    Result.TermEscalated = true;
    // SIGKILL cannot be ignored: wait for the reap synchronously.
    wait4EintrSafe(Result.ChildPid, &Status, 0, &RU);
    Result.CpuMs = rusageCpuMs(RU);
    finalize(Status);
    return true;
  }
  return false;
}

void SandboxProcess::appendPollFds(std::vector<struct pollfd> &Fds) const {
  if (Finished)
    return;
  if (PayloadFd >= 0 && !PayloadDrain.Eof)
    Fds.push_back({PayloadFd, POLLIN, 0});
  if (StderrFd >= 0 && !StderrDrain.Eof)
    Fds.push_back({StderrFd, POLLIN, 0});
}

void SandboxProcess::forceKill() {
  if (!Started || Finished)
    return;
  kill(Result.ChildPid, SIGKILL);
  int Status = 0;
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  wait4EintrSafe(Result.ChildPid, &Status, 0, &RU);
  Result.CpuMs = rusageCpuMs(RU);
  TimedOut = true; // classify as Hung, not as the child's own crash
  finalize(Status);
}

SandboxResult dlf::campaign::runInSandbox(
    const std::function<int(int PayloadFd)> &Fn, const SandboxLimits &Limits,
    const std::function<void(std::string Frame)> &OnFrame) {
  SandboxProcess P;
  if (!P.start(Fn, Limits))
    return P.takeResult();
  auto HandFrames = [&] {
    for (std::string &Frame : P.takeFrames())
      if (OnFrame)
        OnFrame(std::move(Frame));
  };
  while (!P.poll()) {
    HandFrames();
    // Sleep in poll() on the pipes so child output wakes us immediately
    // and a quiet child costs one syscall per millisecond at most.
    std::vector<struct pollfd> Fds;
    P.appendPollFds(Fds);
    ::poll(Fds.empty() ? nullptr : Fds.data(), Fds.size(), /*timeout=*/1);
  }
  HandFrames();
  return P.takeResult();
}
