//===- serve/StatusServer.h - Loopback HTTP observability plane --*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free HTTP/1.1 status server for long-running
/// analyses (DESIGN.md §15). One background thread runs a poll() loop over
/// the listen socket, a self-pipe wakeup, and every connected client; the
/// analysis thread never touches a socket. Publishing is a mutex-guarded
/// copy plus a one-byte pipe write, so the hot path cannot block on a slow
/// or stuck scraper — overflowing SSE clients are dropped, not waited on.
///
/// Endpoints (GET only, everything else is 405):
///   /metrics   Prometheus text v0.0.4: the publisher's frontier-merged
///              snapshot (campaign aggregate incl. child telemetry) merged
///              with a live pull from the process registry, plus a
///              dlf_build_info{...} 1 info metric.
///   /status    The last published CampaignStatus as JSON.
///   /events    Server-Sent Events stream of published events (journal
///              commits, quarantines, observer epochs).
///   /healthz   "ok" liveness probe.
///   /buildinfo Build metadata as JSON.
///
/// Security posture: the server refuses to bind anywhere but loopback and
/// serves only reads — it exposes no mutation surface, so no auth layer is
/// needed for its intended localhost-scrape use.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_SERVE_STATUSSERVER_H
#define DLF_SERVE_STATUSSERVER_H

#include "serve/CampaignStatus.h"
#include "telemetry/Metrics.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dlf {
namespace serve {

/// Escapes a Prometheus label value (backslash, double quote, newline) per
/// the text exposition format. Exposed for tests.
std::string promEscapeLabelValue(const std::string &V);

struct ServerOptions {
  /// Listen address; loopback only. Accepted forms: "127.0.0.1:PORT",
  /// "localhost:PORT", ":PORT", "PORT". Port 0 binds an ephemeral port
  /// (read it back via port()). Anything non-loopback is refused.
  std::string Addr = "127.0.0.1:0";
  /// Producing tool name, exported in /buildinfo and dlf_build_info.
  std::string Tool = "dlf";
  /// Extra /buildinfo fields, also rendered as dlf_build_info labels.
  std::map<std::string, std::string> BuildInfo;
  /// Live metrics pull for /metrics; defaults to the global registry
  /// snapshot. Runs on the server thread, so it must be thread-safe
  /// (Registry::snapshot is).
  std::function<telemetry::MetricsSnapshot()> MetricsProvider;
  /// Connection cap; accepts past this are answered 503 and closed.
  size_t MaxClients = 32;
  /// Per-client outbox cap; an SSE client this far behind is dropped.
  size_t MaxClientBufferBytes = 1 << 20;
};

/// The server. Create with start(); destruction (or stop()) joins the
/// serving thread and closes every socket. Publish methods are safe from
/// any thread and never block on network I/O.
class StatusServer : public StatusSink {
public:
  /// Binds, listens, and spawns the serving thread. Returns null with a
  /// human-readable \p Err on refusal (non-loopback address, bad port,
  /// bind failure).
  static std::unique_ptr<StatusServer> start(ServerOptions Opts,
                                             std::string *Err);

  ~StatusServer() override;
  StatusServer(const StatusServer &) = delete;
  StatusServer &operator=(const StatusServer &) = delete;

  /// Idempotent shutdown: wakes the poll loop, joins the thread, closes
  /// all fds. SSE clients get a final "bye" event first.
  void stop();

  /// The bound port (resolved even when Addr asked for port 0).
  uint16_t port() const { return Port; }
  /// "127.0.0.1:<port>".
  std::string address() const;

  // -- StatusSink.
  void publishStatus(const CampaignStatus &S) override;
  void publishEvent(const std::string &Type, const std::string &Json) override;
  void publishMetrics(const telemetry::MetricsSnapshot &M) override;

  // -- Introspection (tests, final stderr summary).
  uint64_t requestsServed() const {
    return RequestsServed.load(std::memory_order_relaxed);
  }
  uint64_t sseClientsDropped() const {
    return SseDropped.load(std::memory_order_relaxed);
  }

private:
  StatusServer() = default;

  struct Client {
    int Fd = -1;
    std::string In;   ///< request bytes until the blank line
    std::string Out;  ///< pending response bytes
    bool Sse = false; ///< subscribed to /events
    bool CloseAfterFlush = false;
  };

  void threadMain();
  void acceptClients();
  bool handleReadable(Client &C);
  bool flushClient(Client &C);
  void dispatchRequest(Client &C, const std::string &Method,
                       const std::string &Path);
  std::string renderMetrics();
  std::string renderBuildInfo();
  static std::string simpleResponse(int Code, const std::string &Reason,
                                    const std::string &ContentType,
                                    const std::string &Body);

  ServerOptions Opts;
  uint16_t Port = 0;
  int ListenFd = -1;
  int WakeRead = -1;
  int WakeWrite = -1;
  std::thread Thread;
  std::atomic<bool> Stopping{false};

  /// Guards everything the publisher and the server thread share.
  mutable std::mutex Mu;
  CampaignStatus LastStatus;
  telemetry::MetricsSnapshot PublishedMetrics;
  /// Events published but not yet framed onto client outboxes.
  std::deque<std::string> PendingEvents;

  /// Owned solely by the server thread — no lock needed.
  std::vector<Client> Clients;

  std::atomic<uint64_t> RequestsServed{0};
  std::atomic<uint64_t> SseDropped{0};
};

} // namespace serve
} // namespace dlf

#endif // DLF_SERVE_STATUSSERVER_H
