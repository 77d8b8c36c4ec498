#include "net/server.h"

#include <poll.h>

#include <chrono>
#include <sstream>
#include <utility>

#include "core/database.h"
#include "fault/failpoint.h"
#include "obs/exposition.h"
#include "replication/follower.h"
#include "shell/dispatcher.h"
#include "util/json_writer.h"

namespace caddb {
namespace net {

/// Per-connection state. Reader thread, worker pool and accept loop all
/// hold shared_ptrs, so a session outlives whichever side notices the
/// disconnect first; the socket is the only resource torn down eagerly.
struct Server::Session {
  uint64_t id = 0;
  Socket sock;
  std::string peer;
  std::string ns;
  bool read_only = false;
  std::atomic<bool> hello_done{false};
  /// Created on first request (under the execution lock); carries the
  /// session's schema-block state and sticky ship target.
  std::unique_ptr<shell::Dispatcher> dispatcher;
  /// Set (under the execution lock) once the session ran `quit`: a request
  /// a worker picks up after that is dropped, not served.
  bool quit = false;
  /// Serializes frame writes: worker responses and reader sheds interleave.
  std::mutex write_mu;
  std::thread reader_thread;
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> sheds{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<size_t> inflight{0};
  /// Previous stats() sample, for per-session rates between successive
  /// `server status` calls. Guarded by sessions_mu_ (stats() holds it).
  uint64_t prev_requests = 0;
  uint64_t prev_bytes_in = 0;
  uint64_t prev_bytes_out = 0;
  uint64_t prev_sample_us = 0;
};

struct Server::Request {
  std::shared_ptr<Session> session;
  uint64_t id = 0;
  std::string line;
  /// When the reader enqueued it — the deadline check compares queue wait
  /// against ServerOptions::request_deadline_us.
  uint64_t enqueue_us = 0;
  /// The client's trace context, carried explicitly across the reader →
  /// worker hand-off: the thread-local span stack does not survive the
  /// queue, so without this the net.request span would root a fresh tree
  /// on whichever worker picked it up.
  obs::TraceContext ctx;
};

uint64_t Server::NowUs() const {
  if (options_.clock_us_for_test) return options_.clock_us_for_test();
  return obs::Tracer::NowUs();
}

Server::Server(Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      obs_(obs::SharedOrOwned(
          options_.obs != nullptr
              ? options_.obs
              : (db != nullptr ? db->observability() : nullptr),
          &owned_obs_)) {
  obs::MetricsRegistry& m = obs_->metrics;
  m_connections_ =
      m.GetGauge("caddb_net_connections", "Active client connections");
  m_connections_total_ = m.GetCounter("caddb_net_connections_total",
                                      "Connections accepted since start");
  m_connections_rejected_ = m.GetCounter(
      "caddb_net_connections_rejected_total",
      "Connections refused by admission control (max_connections)");
  m_bytes_in_ =
      m.GetCounter("caddb_net_bytes_in_total", "Bytes read from clients");
  m_bytes_out_ =
      m.GetCounter("caddb_net_bytes_out_total", "Bytes written to clients");
  m_requests_ =
      m.GetCounter("caddb_net_requests_total", "Requests executed");
  m_sheds_ = m.GetCounter("caddb_net_sheds_total",
                          "Requests refused by admission control");
  m_protocol_errors_ = m.GetCounter("caddb_net_protocol_errors_total",
                                    "Connections dropped for framing errors");
  m_scrapes_ =
      m.GetCounter("caddb_net_scrapes_total", "HTTP /metrics scrapes served");
  m_request_us_ = m.GetHistogram("caddb_net_request_us",
                                 "Request execution latency (us)");
  m_replica_lag_ = m.GetGauge(
      "caddb_replication_replica_lag",
      "shipped_lsn - replay_lsn after the last applied manifest");
}

Result<std::unique_ptr<Server>> Server::Start(Database* db,
                                              ServerOptions options) {
  std::unique_ptr<Server> server(new Server(db, std::move(options)));
  CADDB_RETURN_IF_ERROR(server->Listen());
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  const size_t workers = server->options_.worker_threads > 0
                             ? server->options_.worker_threads
                             : 1;
  for (size_t i = 0; i < workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

Server::~Server() { Shutdown(); }

Status Server::Listen() {
  uint16_t bound = 0;
  CADDB_ASSIGN_OR_RETURN(
      listener_, ListenTcp(options_.bind_address, options_.port,
                           static_cast<int>(options_.max_connections), &bound));
  port_ = bound;
  return OkStatus();
}

std::string Server::address() const {
  return options_.bind_address + ":" + std::to_string(port_);
}

void Server::ServeFollower(replication::Follower* follower) {
  std::lock_guard<std::mutex> exec(exec_mu_);
  follower_ = follower;
  follower_attached_.store(true, std::memory_order_release);
}

Database* Server::CurrentDb() {
  if (follower_ != nullptr) return follower_->db();
  return db_;
}

void Server::Shutdown() {
  if (stop_.exchange(true)) {
    // Second caller: the first one is (or was) tearing down; nothing held
    // here survives it, so just wait for the threads it joins.
    return;
  }
  // Shutdown (not close) wakes the accept poll and every blocked reader;
  // the fds stay alive until their threads are done with them — closing
  // here would race the kernel recycling the fd number under a thread
  // still polling or recv'ing on it.
  listener_.ShutdownBoth();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [id, session] : sessions_) session->sock.ShutdownBoth();
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Workers exit on stop_ without draining the queue, so requests still
  // queued here hold inflight counts their readers are about to wait on.
  // Drop them now — before the reader wait below — or a reader parked in
  // its inflight drain would never wake. Enqueues observe stop_ under
  // queue_mu_, so nothing lands in the queue after this drain.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (Request& request : queue_) {
      request.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
    }
    queue_.clear();
  }
  // Readers erase themselves from sessions_ and park their thread handles
  // in finished_readers_; with every socket shut down they exit promptly.
  while (true) {
    ReapFinishedReaders();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      if (sessions_.empty() && finished_readers_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Server::ReapFinishedReaders() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    finished.swap(finished_readers_);
  }
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    ReapFinishedReaders();
    struct pollfd pfd = {};
    pfd.fd = listener_.fd();
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    Result<Socket> accepted = Accept(listener_);
    if (!accepted.ok()) continue;
    std::shared_ptr<Session> session;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      if (sessions_.size() >= options_.max_connections) {
        m_connections_rejected_->Increment();
      } else {
        session = std::make_shared<Session>();
        session->id = next_session_id_++;
        session->sock = std::move(*accepted);
        // Chaos targeting: armed net.session.* failpoints act on every
        // accepted connection's I/O (and only on server-side sockets).
        session->sock.SetFaultSites(fault::sites::kNetSessionRead,
                                    fault::sites::kNetSessionWrite);
        session->peer = PeerName(session->sock);
        sessions_[session->id] = session;
      }
    }
    if (session == nullptr) {
      // Over the admission cap: answer with a connection-level shed frame
      // (correlation id 0) in bounded time and close. A client sees a
      // clean refusal, not a hang.
      const std::string frame = EncodeFrame(
          FrameType::kShed,
          EncodeShedPayload(0, "server at max connections (" +
                                   std::to_string(options_.max_connections) +
                                   ")"));
      (void)accepted->SendAll(frame.data(), frame.size());
      accepted->Close();
      continue;
    }
    m_connections_total_->Increment();
    m_connections_->Add(1);
    // Store the handle under sessions_mu_ so a reader that exits instantly
    // still finds (and parks) the real handle, not an empty one.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session->reader_thread =
        std::thread([this, session] { ReaderLoop(session); });
  }
}

void Server::ReaderLoop(std::shared_ptr<Session> session) {
  FrameDecoder decoder;
  std::string sniff;
  bool http = false;
  bool sniffed = false;
  char buf[16 * 1024];
  while (!stop_.load(std::memory_order_acquire)) {
    Result<size_t> n = session->sock.Recv(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    session->bytes_in.fetch_add(*n, std::memory_order_relaxed);
    m_bytes_in_->Increment(*n);
    if (!sniffed) {
      // Same-port HTTP: the frame magic starts "CADF", a scrape starts
      // "GET ". Decide on the first 4 bytes.
      sniff.append(buf, *n);
      if (sniff.size() < 4) continue;
      sniffed = true;
      http = sniff.compare(0, 4, "GET ") == 0;
      if (http) {
        HandleHttp(session, std::move(sniff));
        break;
      }
      const Status fed = decoder.Feed(sniff.data(), sniff.size());
      sniff.clear();
      if (!fed.ok()) {
        m_protocol_errors_->Increment();
        CADDB_LOG(&obs_->log, obs::LogLevel::kWarn, "net",
                  "session " + std::to_string(session->id) +
                      " framing lost: " + fed.ToString());
        WriteFrame(session, FrameType::kProtocolError, fed.ToString());
        break;
      }
    } else {
      const Status fed = decoder.Feed(buf, *n);
      if (!fed.ok()) {
        m_protocol_errors_->Increment();
        CADDB_LOG(&obs_->log, obs::LogLevel::kWarn, "net",
                  "session " + std::to_string(session->id) +
                      " framing lost: " + fed.ToString());
        WriteFrame(session, FrameType::kProtocolError, fed.ToString());
        break;
      }
    }
    Frame frame;
    bool goodbye = false;
    while (decoder.Next(&frame)) {
      if (frame.type == FrameType::kGoodbye) {
        goodbye = true;
        break;
      }
      HandleFrame(session, std::move(frame));
    }
    if (goodbye) break;
  }
  session->sock.ShutdownBoth();
  // Wait for in-flight requests so no worker writes to a session whose
  // reader has torn down. Workers drop the shared_ptr when done.
  while (session->inflight.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  m_connections_->Add(-1);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  finished_readers_.push_back(std::move(session->reader_thread));
  sessions_.erase(session->id);
  // The fd itself is released by the Session destructor, after the erase:
  // Shutdown() can only reach sessions still in the map, so it never
  // half-closes an fd number the kernel has already recycled.
}

void Server::HandleFrame(const std::shared_ptr<Session>& session,
                         Frame frame) {
  if (frame.type == FrameType::kHello) {
    SessionRole requested = SessionRole::kDefault;
    std::string ns;
    const Status decoded = DecodeHelloPayload(frame.payload, &requested, &ns);
    if (!decoded.ok()) {
      m_protocol_errors_->Increment();
      WriteFrame(session, FrameType::kProtocolError, decoded.ToString());
      session->sock.ShutdownBoth();
      return;
    }
    const bool forced_read_only =
        options_.read_only || follower_attached_.load(std::memory_order_acquire);
    session->ns = ns;
    session->read_only =
        forced_read_only || requested == SessionRole::kReadOnly;
    session->hello_done.store(true, std::memory_order_release);
    const SessionRole granted =
        session->read_only ? SessionRole::kReadOnly : SessionRole::kWritable;
    // The caps word is the trace-capability handshake: clients that parse
    // it attach trace context to requests; old clients just display it.
    std::string banner = "caddb " + address() + " caps=trace";
    if (forced_read_only) banner += " (read-only)";
    CADDB_LOG(&obs_->log, obs::LogLevel::kDebug, "net",
              "session " + std::to_string(session->id) + " hello from " +
                  session->peer + (session->read_only ? " (read-only)" : ""));
    WriteFrame(session, FrameType::kHelloOk,
               EncodeHelloOkPayload(granted, banner));
    return;
  }
  if (frame.type != FrameType::kRequest) {
    m_protocol_errors_->Increment();
    WriteFrame(session, FrameType::kProtocolError,
               "protocol error: unexpected frame type " +
                   std::to_string(static_cast<int>(frame.type)));
    session->sock.ShutdownBoth();
    return;
  }
  uint64_t id = 0;
  std::string line;
  obs::TraceContext ctx;
  const Status decoded = DecodeRequestPayload(frame.payload, &id, &line, &ctx);
  if (!decoded.ok()) {
    m_protocol_errors_->Increment();
    WriteFrame(session, FrameType::kProtocolError, decoded.ToString());
    session->sock.ShutdownBoth();
    return;
  }
  if (!session->hello_done.load(std::memory_order_acquire)) {
    m_protocol_errors_->Increment();
    WriteFrame(session, FrameType::kProtocolError,
               "protocol error: request before hello");
    session->sock.ShutdownBoth();
    return;
  }
  // Admission control, on the reader thread so a saturated server still
  // answers in bounded time: per-session pipelining cap first, then the
  // bounded central queue.
  if (session->inflight.load(std::memory_order_acquire) >=
      options_.session_inflight_cap) {
    Shed(session, id,
         "session cap: " + std::to_string(options_.session_inflight_cap) +
             " requests already in flight");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // The stop_ check must happen under queue_mu_: a reader draining
    // already-decoded frames can get here after Shutdown() has drained the
    // queue, and enqueueing then would strand the inflight count forever
    // (no worker will ever pick it up).
    if (!stop_.load(std::memory_order_acquire) &&
        queue_.size() < options_.queue_capacity) {
      session->inflight.fetch_add(1, std::memory_order_acq_rel);
      queue_.push_back(Request{session, id, std::move(line), NowUs(), ctx});
      queue_cv_.notify_one();
      return;
    }
    // Shed outside the lock: it writes to the socket.
  }
  if (stop_.load(std::memory_order_acquire)) {
    Shed(session, id, "server shutting down");
    return;
  }
  Shed(session, id,
       "server overloaded: request queue full (" +
           std::to_string(options_.queue_capacity) + ")");
}

void Server::WorkerLoop() {
  while (true) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      request = std::move(queue_.front());
      queue_.pop_front();
    }
    if (options_.worker_hook_for_test) options_.worker_hook_for_test();
    const uint64_t deadline = options_.request_deadline_us;
    const uint64_t waited =
        deadline > 0 ? NowUs() - request.enqueue_us : 0;
    if (deadline > 0 && waited > deadline) {
      Shed(request.session, request.id,
           "deadline exceeded: queued " + std::to_string(waited) +
               "us > " + std::to_string(deadline) + "us");
    } else {
      Execute(request);
    }
    request.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void Server::Execute(const Request& request) {
  const std::shared_ptr<Session>& session = request.session;
  std::string output;
  bool error = false;
  bool quit = false;
  bool shed = false;
  std::string shed_reason;
  obs::TraceContext server_ctx;
  {
    std::lock_guard<std::mutex> exec(exec_mu_);
    if (session->quit) return;
    Database* db = CurrentDb();
    if (db == nullptr) {
      shed = true;
      shed_reason = "no database available yet (follower has not caught up)";
    } else if (follower_ != nullptr && options_.max_replica_lag >= 0 &&
               m_replica_lag_->value() > options_.max_replica_lag) {
      // The routing signal: a far-behind replica sheds reads instead of
      // serving stale data. caddb_replication_lag is the same number the
      // fleet's monitoring sees.
      shed = true;
      shed_reason =
          "replica lag " + std::to_string(m_replica_lag_->value()) +
          " exceeds max " + std::to_string(options_.max_replica_lag);
    } else {
      // The client's wire context (carried through the queue in
      // request.ctx) parents this span; Database spans opened inside
      // ExecuteLine nest under it via the thread-local stack, so the
      // whole server-side subtree joins the client-rooted trace.
      obs::Span span(&obs_->trace, "net.request", request.ctx, m_request_us_,
                     /*always_time=*/true);
      server_ctx = span.context();
      if (session->dispatcher == nullptr) {
        session->dispatcher = std::make_unique<shell::Dispatcher>(db);
        session->dispatcher->set_read_only(session->read_only);
        session->dispatcher->AttachServer(this);
      } else {
        session->dispatcher->set_db(db);
      }
      std::ostringstream out;
      const size_t errors_before = session->dispatcher->error_count();
      quit = !session->dispatcher->ExecuteLine(request.line, out);
      session->quit = quit;
      error = session->dispatcher->error_count() > errors_before;
      output = out.str();
    }
  }
  if (shed) {
    Shed(session, request.id, shed_reason);
    return;
  }
  session->requests.fetch_add(1, std::memory_order_relaxed);
  m_requests_->Increment();
  // Echo this request's server-side context only to clients that sent
  // context themselves — old clients would misread the extension as text.
  WriteFrame(session, FrameType::kResponse,
             request.ctx.valid()
                 ? EncodeResponsePayload(request.id, error, output, server_ctx)
                 : EncodeResponsePayload(request.id, error, output));
  // `quit` over the wire ends the session, same as at the local prompt.
  if (quit) session->sock.ShutdownBoth();
}

void Server::WriteFrame(const std::shared_ptr<Session>& session,
                        FrameType type, const std::string& payload) {
  const std::string frame = EncodeFrame(type, payload);
  std::lock_guard<std::mutex> lock(session->write_mu);
  const Status sent = session->sock.SendAll(frame.data(), frame.size());
  if (sent.ok()) {
    session->bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
    m_bytes_out_->Increment(frame.size());
  }
}

void Server::Shed(const std::shared_ptr<Session>& session, uint64_t id,
                  const std::string& reason) {
  session->sheds.fetch_add(1, std::memory_order_relaxed);
  m_sheds_->Increment();
  CADDB_LOG(&obs_->log, obs::LogLevel::kInfo, "net",
            "shed request " + std::to_string(id) + " on session " +
                std::to_string(session->id) + ": " + reason);
  WriteFrame(session, FrameType::kShed, EncodeShedPayload(id, reason));
}

void Server::HandleHttp(const std::shared_ptr<Session>& session,
                        std::string initial) {
  // Minimal HTTP/1.0 for the scrape path: read the request head (bounded),
  // answer one response, close. Prometheus needs nothing more.
  constexpr size_t kMaxHead = 8 * 1024;
  std::string head = std::move(initial);
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos && head.size() < kMaxHead) {
    Result<size_t> n = session->sock.Recv(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    session->bytes_in.fetch_add(*n, std::memory_order_relaxed);
    m_bytes_in_->Increment(*n);
    head.append(buf, *n);
  }
  const size_t line_end = head.find_first_of("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  std::string path = "/";
  {
    const size_t sp1 = request_line.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : request_line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  std::string query;
  const size_t query_at = path.find('?');
  if (query_at != std::string::npos) {
    query = path.substr(query_at + 1);
    path.resize(query_at);
  }
  std::string status = "200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (path == "/metrics") {
    m_scrapes_->Increment();
    // The exact bytes of the shell's `metrics --format=prom`.
    body = obs::RenderPrometheus(obs_->metrics.Snapshot());
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/vars") {
    // Counter rates + current gauges over ?window= milliseconds, from the
    // metrics-history ring (caddb_server runs the snapshotter; embedders
    // Tick() themselves). `samples` < 2 means the ring cannot answer yet.
    m_scrapes_->Increment();
    uint64_t window_ms = 10000;
    const size_t w = query.find("window=");
    if (w != std::string::npos) {
      window_ms = 0;
      for (size_t i = w + 7; i < query.size(); ++i) {
        if (query[i] < '0' || query[i] > '9') break;
        window_ms = window_ms * 10 + static_cast<uint64_t>(query[i] - '0');
      }
    }
    JsonWriter json;
    obs::WriteRateWindowJson(obs_->history.Window(window_ms), &json);
    body = json.str() + "\n";
    content_type = "application/json";
  } else if (path == "/healthz") {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found: " + path + "\n";
  }
  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  const Status sent = session->sock.SendAll(response.data(), response.size());
  if (sent.ok()) {
    session->bytes_out.fetch_add(response.size(), std::memory_order_relaxed);
    m_bytes_out_->Increment(response.size());
  }
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.address = address();
  stats.port = port_;
  stats.connections_accepted = m_connections_total_->value();
  stats.connections_rejected = m_connections_rejected_->value();
  stats.queue_capacity = options_.queue_capacity;
  stats.requests = m_requests_->value();
  stats.sheds = m_sheds_->value();
  stats.protocol_errors = m_protocol_errors_->value();
  stats.scrapes = m_scrapes_->value();
  stats.bytes_in = m_bytes_in_->value();
  stats.bytes_out = m_bytes_out_->value();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.queue_depth = queue_.size();
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  stats.sessions_active = sessions_.size();
  const uint64_t now_us = NowUs();
  for (const auto& [id, session] : sessions_) {
    SessionInfo info;
    info.id = session->id;
    info.peer = session->peer;
    info.ns = session->ns;
    info.read_only = session->read_only;
    info.requests = session->requests.load(std::memory_order_relaxed);
    info.sheds = session->sheds.load(std::memory_order_relaxed);
    info.bytes_in = session->bytes_in.load(std::memory_order_relaxed);
    info.bytes_out = session->bytes_out.load(std::memory_order_relaxed);
    info.inflight = session->inflight.load(std::memory_order_relaxed);
    // `server top`-style rates: movement since the previous stats() call.
    // The first call for a session has no baseline and reports 0.
    if (session->prev_sample_us != 0 && now_us > session->prev_sample_us) {
      const double seconds =
          static_cast<double>(now_us - session->prev_sample_us) / 1e6;
      info.requests_per_sec =
          static_cast<double>(info.requests - session->prev_requests) /
          seconds;
      info.bytes_in_per_sec =
          static_cast<double>(info.bytes_in - session->prev_bytes_in) /
          seconds;
      info.bytes_out_per_sec =
          static_cast<double>(info.bytes_out - session->prev_bytes_out) /
          seconds;
    }
    session->prev_requests = info.requests;
    session->prev_bytes_in = info.bytes_in;
    session->prev_bytes_out = info.bytes_out;
    session->prev_sample_us = now_us;
    stats.sessions.push_back(std::move(info));
  }
  return stats;
}

}  // namespace net
}  // namespace caddb
