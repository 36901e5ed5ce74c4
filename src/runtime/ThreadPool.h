//===- runtime/ThreadPool.h - Parked OS threads for managed threads -*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OS threads Active-mode dlf::Threads run on. A serialized run spawns
/// the same few managed threads rep after rep, and a fresh std::thread per
/// dlf::Thread made pthread_create and fresh stacks a large share of a
/// short run. Instead each body runs on a parked worker: starting a managed
/// thread takes an idle worker (or starts one when none is idle) and posts
/// the body to it; joining waits for the body's done signal and parks the
/// worker again. Idle workers are reused last-in first-out.
///
/// A worker runs each body on the CPU its run is pinned to; it re-pins
/// itself only when that CPU differs from the one it ran its last body on.
///
/// Fork and exit: a pthread_atfork prepare handler retires every idle
/// worker (wakes it to exit and joins it), so a process that forks between
/// runs forks single-threaded, as it did before the pool. A forked child
/// then never holds a worker that did not survive the fork, and
/// ThreadSanitizer, which refuses thread creation in the child of a
/// multi-threaded fork, accepts the child's runs. Likewise the idle workers
/// are retired at exit() and, through retireIdlePooledThreads, before a
/// sandboxed child's _exit: ThreadSanitizer's exit path sleeps a second
/// while any other thread is alive. Forking while a managed thread runs is
/// not supported.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_RUNTIME_THREADPOOL_H
#define DLF_RUNTIME_THREADPOOL_H

#include <cstddef>
#include <functional>

namespace dlf {

/// One pooled OS thread (opaque).
struct PooledThread;

/// Runs \p Body on an idle pooled OS thread, starting one when none is
/// idle. The body runs on \p Cpu (-1 leaves the worker's mask alone). The
/// body must not throw.
PooledThread &startPooled(std::function<void()> Body, int Cpu);

/// Waits until \p T's body has returned, then parks \p T for the next body.
void joinPooled(PooledThread &T);

/// Joins every idle pooled thread (busy ones keep running). For a process
/// that leaves through _exit, which skips the pool's exit handler.
void retireIdlePooledThreads();

/// The OS threads the pool has started in this process.
size_t pooledThreadsStarted();

} // namespace dlf

#endif // DLF_RUNTIME_THREADPOOL_H
