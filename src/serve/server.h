// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_SERVE_SERVER_H_
#define PME_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/analysis_session.h"
#include "core/table_artifact.h"
#include "data/dataset.h"
#include "maxent/solution_cache.h"

namespace pme::serve {

/// Server configuration. The artifact fixes the table side; these knobs
/// fix the request defaults and the resource envelope.
struct ServeOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (the bound port is readable via port() after Start).
  uint16_t port = 0;
  /// Size of the shared solver pool every request's block solves run on
  /// (0 = hardware concurrency).
  size_t solver_threads = 0;
  /// Concurrent connections beyond this are closed on accept.
  size_t max_connections = 64;
  /// Default per-request wall budget when the request carries no
  /// `deadline_ms` (0 = unlimited).
  double default_deadline_ms = 0.0;
  /// Request defaults (tolerance, iteration budget, ...). The pool/cache
  /// plumbing inside solver_options is installed by the server; the
  /// per-request protocol field overrides the cache mode.
  core::AnalysisOptions analysis;
  /// Shared solution-cache budget in MiB (0 disables the cache).
  size_t cache_mb = 64;
};

/// Observability counters (monotonic; snapshot via stats()). Backed by
/// the process-wide metrics::Registry (serve.* counters): the server
/// snapshots the registry at Start() and stats() reports the deltas, so
/// per-server readings survive the counters being process-global.
struct ServeStats {
  size_t connections_accepted = 0;
  size_t connections_rejected = 0;  // over max_connections
  size_t accept_failures = 0;       // serve_accept_fail failpoint hits
  size_t requests_ok = 0;
  size_t requests_error = 0;
  size_t requests_deadline_exceeded = 0;
};

/// Blocking-socket, thread-per-connection analyze server — the MVP
/// serving layer. One immutable TableArtifact is loaded at startup;
/// each connection reads newline-delimited JSON analyze requests (see
/// serve/protocol.h) and writes one JSON response line per request.
/// Per-request solves share one common::ThreadPool (batch-scheduled, so
/// concurrent requests interleave their block solves) and one
/// SolutionCache namespaced by the artifact's content hash.
///
/// Failure semantics: a malformed line gets an {ok:false} response and
/// the connection keeps serving; a request whose deadline is already
/// spent (deadline_ms <= 0) still answers ok:true with
/// termination "deadline_exceeded" and every component degraded to its
/// closed-form prior — the library's never-empty-handed contract,
/// surfaced through the wire. Shutdown() cancels in-flight solves
/// cooperatively, closes every socket, and joins every thread.
///
/// Failpoint `serve_accept_fail`: the accept loop drops the Nth
/// accepted connection (closed before a handler spawns) and keeps
/// serving — the deterministic stand-in for transient accept-time
/// failures (EMFILE, RST before handshake).
class AnalysisServer {
 public:
  /// `dataset`, when non-null, provides the vocabulary for dataset-mode
  /// knowledge statements (attribute/value names); abstract-mode
  /// statements need none.
  AnalysisServer(std::shared_ptr<const core::TableArtifact> artifact,
                 std::shared_ptr<const data::Dataset> dataset,
                 ServeOptions options);
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  /// Binds, listens, and spawns the acceptor thread. kUnavailable-style
  /// IoError when the socket layer refuses.
  Status Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Idempotent; safe to call while requests are in flight (they finish
  /// with termination "cancelled").
  void Shutdown();

  ServeStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void HandleConnection(Connection* connection);
  /// Parses, runs, and renders one request line (never throws; every
  /// failure becomes an {ok:false} line).
  std::string HandleLine(const std::string& line);
  void ReapFinishedConnections();  // requires connections_mutex_
  size_t ActiveConnections();      // requires connections_mutex_

  std::shared_ptr<const core::TableArtifact> artifact_;
  std::shared_ptr<const data::Dataset> dataset_;
  ServeOptions options_;

  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<maxent::SolutionCache> cache_;
  std::unique_ptr<core::AnalysisSession> session_;
  CancellationSource shutdown_source_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutting_down_{false};

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  /// Registry counter values at Start(); stats() = current − baseline.
  ServeStats baseline_;
};

}  // namespace pme::serve

#endif  // PME_SERVE_SERVER_H_
