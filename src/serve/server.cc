#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "knowledge/parser.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace pme::serve {
namespace {

/// Longest accepted request line; a client that streams more without a
/// newline is protocol-broken and gets the connection closed.
constexpr size_t kMaxLineBytes = 4u << 20;

/// Full-buffer send; MSG_NOSIGNAL so a client that hung up mid-response
/// surfaces as an error return instead of SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// serve.* registry handles. The per-server ServeStats view is derived
/// from these (baseline deltas), so there is no per-bump mutex left.
struct ServeMetrics {
  metrics::Counter* connections_accepted;
  metrics::Counter* connections_rejected;
  metrics::Counter* accept_failures;
  metrics::Counter* requests_ok;
  metrics::Counter* requests_error;
  metrics::Counter* requests_deadline_exceeded;
  metrics::Counter* requests_stats;
  metrics::Gauge* connections_active;
  metrics::Histogram* request_seconds;
};

ServeMetrics& GetServeMetrics() {
  static ServeMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    ServeMetrics r;
    r.connections_accepted =
        &registry.GetCounter("serve.connections_accepted");
    r.connections_rejected =
        &registry.GetCounter("serve.connections_rejected");
    r.accept_failures = &registry.GetCounter("serve.accept_failures");
    r.requests_ok = &registry.GetCounter("serve.requests_ok");
    r.requests_error = &registry.GetCounter("serve.requests_error");
    r.requests_deadline_exceeded =
        &registry.GetCounter("serve.requests_deadline_exceeded");
    r.requests_stats = &registry.GetCounter("serve.requests_stats");
    r.connections_active = &registry.GetGauge("serve.connections_active");
    r.request_seconds = &registry.GetHistogram("serve.request_seconds");
    return r;
  }();
  return m;
}

/// Point-in-time registry values of the serve.* counters, in ServeStats
/// shape.
ServeStats ReadServeCounters() {
  const auto& registry = metrics::Registry::Global();
  ServeStats s;
  s.connections_accepted =
      registry.CounterValue("serve.connections_accepted");
  s.connections_rejected =
      registry.CounterValue("serve.connections_rejected");
  s.accept_failures = registry.CounterValue("serve.accept_failures");
  s.requests_ok = registry.CounterValue("serve.requests_ok");
  s.requests_error = registry.CounterValue("serve.requests_error");
  s.requests_deadline_exceeded =
      registry.CounterValue("serve.requests_deadline_exceeded");
  return s;
}

}  // namespace

AnalysisServer::AnalysisServer(
    std::shared_ptr<const core::TableArtifact> artifact,
    std::shared_ptr<const data::Dataset> dataset, ServeOptions options)
    : artifact_(std::move(artifact)),
      dataset_(std::move(dataset)),
      options_(std::move(options)) {}

AnalysisServer::~AnalysisServer() { Shutdown(); }

Status AnalysisServer::Start() {
  if (artifact_ == nullptr) {
    return Status::InvalidArgument("AnalysisServer: null artifact");
  }
  if (running_.load()) {
    return Status::InvalidArgument("AnalysisServer: already started");
  }

  pool_ = std::make_unique<ThreadPool>(options_.solver_threads);
  if (options_.cache_mb > 0) {
    cache_ = std::make_unique<maxent::SolutionCache>(options_.cache_mb << 20);
  }
  core::AnalysisOptions base = options_.analysis;
  base.solver_options.pool = pool_.get();
  base.solver_options.solution_cache = cache_.get();
  if (cache_ == nullptr) {
    base.solver_options.cache_mode = maxent::CacheMode::kOff;
  }
  session_ = std::make_unique<core::AnalysisSession>(artifact_, base);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  if (::listen(fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + err);
  }
  // Recover the bound port (the ephemeral-port case: requested port 0).
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("getsockname: " + err);
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  // Per-server stats are deltas against the process-global serve.*
  // counters from this point on.
  baseline_ = ReadServeCounters();
  running_.store(true);
  shutting_down_.store(false);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  PME_LOG(kInfo) << "serve: listening on " << options_.host << ":" << port_;
  return Status::Ok();
}

void AnalysisServer::Shutdown() {
  if (!running_.exchange(false)) return;
  shutting_down_.store(true);
  // Cooperative cancel first: in-flight solves stop at their next
  // iteration check and answer with termination "cancelled".
  shutdown_source_.Cancel();
  // Wake the acceptor out of accept(2), then every handler out of recv.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) {
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) {
      if (connection->thread.joinable()) connection->thread.join();
      if (connection->fd >= 0) {
        ::close(connection->fd);
        connection->fd = -1;
      }
    }
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  session_.reset();
  cache_.reset();
  pool_.reset();
}

ServeStats AnalysisServer::stats() const {
  const ServeStats now = ReadServeCounters();
  ServeStats s;
  s.connections_accepted =
      now.connections_accepted - baseline_.connections_accepted;
  s.connections_rejected =
      now.connections_rejected - baseline_.connections_rejected;
  s.accept_failures = now.accept_failures - baseline_.accept_failures;
  s.requests_ok = now.requests_ok - baseline_.requests_ok;
  s.requests_error = now.requests_error - baseline_.requests_error;
  s.requests_deadline_exceeded = now.requests_deadline_exceeded -
                                 baseline_.requests_deadline_exceeded;
  return s;
}

void AnalysisServer::ReapFinishedConnections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      if ((*it)->fd >= 0) ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t AnalysisServer::ActiveConnections() {
  size_t active = 0;
  for (const auto& connection : connections_) {
    if (!connection->done.load()) ++active;
  }
  return active;
}

void AnalysisServer::AcceptLoop() {
  while (!shutting_down_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (shutting_down_.load()) return;
      // Transient accept failure (EMFILE, aborted handshake): keep
      // serving the connections we have.
      continue;
    }
    if (shutting_down_.load()) {
      ::close(fd);
      return;
    }
    // Failpoint `serve_accept_fail@N`: drop the Nth accepted connection
    // before a handler spawns — the injected stand-in for accept-time
    // failures. The server must keep serving subsequent connects.
    if (PME_FAILPOINT("serve_accept_fail")) {
      ::close(fd);
      GetServeMetrics().accept_failures->Add();
      PME_LOG(kWarning) << "serve: accept failure injected, dropping "
                           "connection";
      continue;
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    ReapFinishedConnections();
    if (ActiveConnections() >= options_.max_connections) {
      ::close(fd);
      GetServeMetrics().connections_rejected->Add();
      PME_LOG(kWarning) << "serve: connection rejected, "
                        << options_.max_connections
                        << " connections already active";
      continue;
    }
    GetServeMetrics().connections_accepted->Add();
    GetServeMetrics().connections_active->Add(1);
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { HandleConnection(raw); });
    connections_.push_back(std::move(connection));
  }
}

void AnalysisServer::HandleConnection(Connection* connection) {
  std::string buffer;
  char chunk[4096];
  while (!shutting_down_.load()) {
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: client is gone
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = HandleLine(line) + "\n";
      if (!SendAll(connection->fd, response)) {
        PME_LOG(kWarning) << "serve: client hung up mid-response";
        connection->done.store(true);
        GetServeMetrics().connections_active->Add(-1);
        return;
      }
    }
    if (buffer.size() > kMaxLineBytes) {
      PME_LOG(kWarning) << "serve: dropping connection streaming "
                        << buffer.size() << " bytes without a newline";
      break;  // unframed garbage
    }
  }
  connection->done.store(true);
  GetServeMetrics().connections_active->Add(-1);
}

std::string AnalysisServer::HandleLine(const std::string& line) {
  Timer timer;
  ServeMetrics& sm = GetServeMetrics();
  const uint64_t parse_start_ns = trace::NowNanos();
  auto request_or = ParseAnalyzeRequest(line);
  const uint64_t parse_end_ns = trace::NowNanos();
  if (!request_or.ok()) {
    sm.requests_error->Add();
    sm.request_seconds->Observe(timer.ElapsedSeconds());
    PME_LOG(kWarning) << "serve: malformed request: "
                      << request_or.status().ToString();
    // Best-effort id recovery so the client can still match the error to
    // its request (the id may have parsed even when a later field did
    // not).
    std::string id;
    if (auto doc = ParseJson(line); doc.ok()) {
      if (const JsonValue* found = doc.value().Find("id"); found != nullptr) {
        if (found->is_string()) id = found->string_value;
        if (found->is_number()) id = JsonNumber(found->number_value);
      }
    }
    return RenderAnalyzeResponse(MakeErrorResponse(id, request_or.status()));
  }
  const AnalyzeRequest& request = request_or.value();

  if (request.verb == Verb::kStats) {
    sm.requests_stats->Add();
    sm.request_seconds->Observe(timer.ElapsedSeconds());
    return RenderStatsResponse(request.id);
  }

  // Every request runs under a fresh trace id (log lines and worker
  // spans correlate through it); `"trace": true` additionally registers
  // a capture so the finished spans ride back on the response.
  const uint64_t trace_id = trace::NewTraceId();
  trace::TraceIdScope trace_scope(trace_id);
  std::optional<trace::RequestCapture> capture;
  if (request.trace) {
    capture.emplace(trace_id);
    // The parse happened before the trace flag was known; backfill its
    // span so traced responses still show the full lifecycle.
    trace::TraceEvent parse_event;
    parse_event.name = "parse";
    parse_event.category = "serve";
    parse_event.trace_id = trace_id;
    parse_event.start_ns = parse_start_ns;
    parse_event.dur_ns = parse_end_ns - parse_start_ns;
    parse_event.tid = trace::CurrentThreadId();
    trace::RecordEvent(parse_event);
  }

  auto fail = [&](const Status& status) {
    sm.requests_error->Add();
    sm.request_seconds->Observe(timer.ElapsedSeconds());
    PME_LOG(kWarning) << "serve: request '" << request.id
                      << "' failed: " << status.ToString();
    AnalyzeResponse response = MakeErrorResponse(request.id, status);
    if (capture.has_value()) {
      response.trace_json = RenderTraceSpans(capture->TakeEvents());
    }
    return RenderAnalyzeResponse(response);
  };

  knowledge::KnowledgeBase kb;
  if (!request.knowledge.empty()) {
    std::string text;
    for (const std::string& statement : request.knowledge) {
      text += statement;
      text += '\n';
    }
    knowledge::ParserContext context;
    context.dataset = dataset_.get();
    if (Status s = knowledge::ParseKnowledge(text, context, &kb); !s.ok()) {
      return fail(s);
    }
  }

  core::AnalysisOptions run_options = session_->options();
  if (request.has_cache) {
    run_options.solver_options.cache_mode = request.cache;
  }
  // Deadline: the request's own budget wins; otherwise the server
  // default applies (0 = unlimited). deadline_ms <= 0 is an
  // already-expired budget — every component degrades to its
  // closed-form prior and the response says so via `termination`.
  const double deadline_ms = request.has_deadline
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  if (request.has_deadline || options_.default_deadline_ms > 0) {
    run_options.solver_options.deadline =
        Deadline::AfterMillis(std::max(0.0, deadline_ms));
  }
  run_options.solver_options.cancel = shutdown_source_.token();

  auto analysis = session_->Run(kb, run_options);
  if (!analysis.ok()) {
    return fail(analysis.status());
  }
  sm.requests_ok->Add();
  if (analysis.value().solver.termination ==
      StatusCode::kDeadlineExceeded) {
    sm.requests_deadline_exceeded->Add();
  }
  AnalyzeResponse response = MakeSuccessResponse(
      request.id, analysis.value(), timer.ElapsedSeconds());
  if (capture.has_value()) {
    // Session spans (compile/solve/evaluate and the worker-side block
    // solves) have all completed by now — the solve barrier is behind
    // us — so the capture is complete.
    response.trace_json = RenderTraceSpans(capture->TakeEvents());
  }
  sm.request_seconds->Observe(timer.ElapsedSeconds());
  return RenderAnalyzeResponse(response);
}

}  // namespace pme::serve
