//===- tests/fixtures/PreloadAlphabet.cpp - Widened-alphabet target --------===//
//
// A plain pthreads program covering the widened synchronization alphabet
// end to end: rwlock read/write sides (Q/U vs A/R lines), trylock success
// and failure (A vs P lines), condvar signal/wake (N/V lines), a timed
// wait that expires (ETIMEDOUT must still reacquire the mutex, and must
// not emit a wakeup edge), and pthread_mutex_destroy as the very first
// interposed call in the process (the destroy wrapper must dlsym its real
// function lazily instead of relying on another wrapper having run).
//
// The program is deadlock-free and deterministic in the event *kinds* it
// emits, which is what PreloadTest.cpp asserts on.
//
// Deliberately uses no dlf headers: the target stays unmodified.
//
//===----------------------------------------------------------------------===//

#include <cerrno>
#include <ctime>
#include <pthread.h>
#include <unistd.h>

namespace {

pthread_mutex_t Busy = PTHREAD_MUTEX_INITIALIZER;
pthread_mutex_t Idle = PTHREAD_MUTEX_INITIALIZER;
pthread_rwlock_t Table = PTHREAD_RWLOCK_INITIALIZER;
pthread_mutex_t StateLock = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t Drained = PTHREAD_COND_INITIALIZER;
pthread_mutex_t TimedLock = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t NeverSignaled = PTHREAD_COND_INITIALIZER;
int Ready = 0;
int Parked = 0;
int Work = 0;

} // namespace

// Exported (non-static) so dladdr can resolve stable call sites.
extern "C" void *alphabetProber(void *) {
  // Busy is held by main for this thread's whole lifetime: the probe
  // always fails (P line) and must bail out without blocking.
  if (pthread_mutex_trylock(&Busy) == 0)
    return (void *)1; // impossible; would be a fixture bug
  // Idle is free: the successful probe is an ordinary acquire (A line).
  if (pthread_mutex_trylock(&Idle) != 0)
    return (void *)1;
  ++Work;
  pthread_mutex_unlock(&Idle);
  return nullptr;
}

extern "C" void *alphabetReader(void *) {
  pthread_rwlock_rdlock(&Table);
  ++Work;
  usleep(2 * 1000);
  pthread_rwlock_unlock(&Table);
  return nullptr;
}

extern "C" void *alphabetWriter(void *) {
  usleep(5 * 1000);
  pthread_rwlock_wrlock(&Table);
  ++Work;
  pthread_rwlock_unlock(&Table);
  return nullptr;
}

extern "C" void *alphabetWaiter(void *) {
  pthread_mutex_lock(&StateLock);
  Parked = 1; // StateLock is held until the wait below releases it
  while (!Ready)
    pthread_cond_wait(&Drained, &StateLock);
  ++Work;
  pthread_mutex_unlock(&StateLock);
  return nullptr;
}

extern "C" void *alphabetTimedWaiter(void *) {
  pthread_mutex_lock(&TimedLock);
  timespec Deadline;
  clock_gettime(CLOCK_REALTIME, &Deadline);
  Deadline.tv_nsec += 10 * 1000 * 1000; // 10 ms; nobody ever signals
  if (Deadline.tv_nsec >= 1000 * 1000 * 1000) {
    Deadline.tv_nsec -= 1000 * 1000 * 1000;
    ++Deadline.tv_sec;
  }
  int Rc = pthread_cond_timedwait(&NeverSignaled, &TimedLock, &Deadline);
  if (Rc != ETIMEDOUT)
    return (void *)1;
  // The expired wait must have reacquired the mutex: this unlock would
  // corrupt state (or abort under error-checking mutexes) otherwise.
  ++Work;
  pthread_mutex_unlock(&TimedLock);
  return nullptr;
}

int main() {
  // Destroy before any other interposed call: a mutex that lives and dies
  // without ever being locked.
  pthread_mutex_t Ephemeral;
  pthread_mutex_init(&Ephemeral, nullptr);
  pthread_mutex_destroy(&Ephemeral);

  // Failed + successful trylock probes.
  pthread_mutex_lock(&Busy);
  pthread_t Prober;
  pthread_create(&Prober, nullptr, alphabetProber, nullptr);
  void *ProbeResult = nullptr;
  pthread_join(Prober, &ProbeResult);
  pthread_mutex_unlock(&Busy);
  if (ProbeResult)
    return 1;

  // Reader/writer traffic on one rwlock.
  pthread_t Reader, Writer;
  pthread_create(&Reader, nullptr, alphabetReader, nullptr);
  pthread_create(&Writer, nullptr, alphabetWriter, nullptr);
  pthread_join(Reader, nullptr);
  pthread_join(Writer, nullptr);
  pthread_rwlock_destroy(&Table);

  // One real signal -> wakeup edge. Signal only once the waiter is parked
  // in the wait: seeing Parked under StateLock means it is.
  pthread_t Waiter;
  pthread_create(&Waiter, nullptr, alphabetWaiter, nullptr);
  for (;;) {
    pthread_mutex_lock(&StateLock);
    if (Parked)
      break;
    pthread_mutex_unlock(&StateLock);
    usleep(1000);
  }
  Ready = 1;
  pthread_cond_signal(&Drained);
  pthread_mutex_unlock(&StateLock);
  pthread_join(Waiter, nullptr);

  // One wait that expires instead.
  pthread_t TimedWaiter;
  void *TimedResult = nullptr;
  pthread_create(&TimedWaiter, nullptr, alphabetTimedWaiter, nullptr);
  pthread_join(TimedWaiter, &TimedResult);
  if (TimedResult)
    return 1;

  return Work == 5 ? 0 : 1;
}
