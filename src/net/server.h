#ifndef CADDB_NET_SERVER_H_
#define CADDB_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "obs/observability.h"
#include "util/result.h"

namespace caddb {

class Database;

namespace replication {
class Follower;
}  // namespace replication

namespace shell {
class Dispatcher;
}  // namespace shell

namespace net {

/// Tuning knobs for a Server. The defaults favor tests and small
/// deployments; caddb_server exposes the load-bearing ones as flags.
struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (port() reports the actual one).
  uint16_t port = 0;
  /// Admission control: connections beyond this are answered with a
  /// connection-level kShed frame and closed, in bounded time.
  size_t max_connections = 64;
  /// Backpressure: the bounded central request queue. A request arriving
  /// with the queue full is answered kShed immediately — the server never
  /// buffers without bound.
  size_t queue_capacity = 128;
  /// Per-session pipelining cap: requests in flight (queued or executing)
  /// beyond this are shed, so one aggressive client cannot monopolize the
  /// queue.
  size_t session_inflight_cap = 8;
  size_t worker_threads = 4;
  /// Every session is read-only regardless of its requested role (the
  /// follower-serving mode).
  bool read_only = false;
  /// When >= 0 and a follower is attached: requests are shed while the
  /// caddb_replication_replica_lag gauge (shipped_lsn - replay_lsn, written
  /// by every poll) exceeds this — the routing signal that keeps far-behind
  /// replicas from serving stale reads. The gauge is read from this
  /// server's obs bundle, so in follower mode `obs` must be the bundle the
  /// Follower reports into (caddb_server wires exactly that).
  int64_t max_replica_lag = -1;
  /// Metrics/trace bundle for the net instruments (and the scrape path
  /// before a follower's first rebuild). Defaults to the database's bundle,
  /// or a private one when `db` is null; must outlive the server.
  obs::Observability* obs = nullptr;
  /// Per-request deadline: a request that has waited in the queue longer
  /// than this when a worker picks it up is shed ("deadline exceeded")
  /// instead of executed — under chaos (slow-loris reads, stalled
  /// workers) latency degrades to a bounded refusal, never an unbounded
  /// queue wait. 0 disables.
  uint64_t request_deadline_us = 0;
  /// Test hook: runs on the worker thread before each request executes
  /// (used to hold the queue saturated in backpressure tests).
  std::function<void()> worker_hook_for_test;
  /// Test hook: replaces the monotonic clock the deadline check reads.
  std::function<uint64_t()> clock_us_for_test;
};

/// Point-in-time telemetry for `server status` and tests.
struct SessionInfo {
  uint64_t id = 0;
  std::string peer;
  std::string ns;
  bool read_only = false;
  uint64_t requests = 0;
  uint64_t sheds = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  size_t inflight = 0;
  /// Rates since the previous stats() sample (0 on a session's first one).
  double requests_per_sec = 0;
  double bytes_in_per_sec = 0;
  double bytes_out_per_sec = 0;
};

/// Server-wide counters are views of the bundle's caddb_net_* counters;
/// the per-session numbers above are the sessions' own.
struct ServerStats {
  std::string address;   // "127.0.0.1:4217"
  uint16_t port = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  size_t sessions_active = 0;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  uint64_t requests = 0;
  uint64_t sheds = 0;
  uint64_t protocol_errors = 0;
  uint64_t scrapes = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  std::vector<SessionInfo> sessions;
};

/// The caddb network service: a threaded TCP listener speaking the framed
/// protocol in protocol.h, with one Session per connection, admission
/// control and backpressure, plus a plain-HTTP Prometheus scrape path on
/// the same port (`GET /metrics` answers the bytes of the shell's
/// `metrics --format=prom`; `GET /healthz` answers "ok").
///
/// Threading: one accept thread, one reader thread per connection, and a
/// worker pool executing requests. Command execution is serialized under a
/// single execution lock — the Database's plain methods are
/// single-threaded by contract — so the pool's win is overlapping parse,
/// I/O and queueing with execution, and the bounded queue is what keeps a
/// burst from turning into unbounded buffering. Each session owns a
/// shell::Dispatcher, so the full verb set of the local shell round-trips
/// over the wire.
class Server {
 public:
  /// Binds, spawns the threads, returns a serving server. `db` (may be
  /// null when a follower is attached later — requests shed until it has
  /// data) is not owned and must outlive the server.
  static Result<std::unique_ptr<Server>> Start(Database* db,
                                               ServerOptions options = {});

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting, wakes every reader, drains the queue and joins all
  /// threads. Idempotent; the destructor calls it.
  void Shutdown();

  uint16_t port() const { return port_; }
  /// "host:port" of the listener.
  std::string address() const;

  ServerStats stats() const;

  /// Serves a replication follower: each request re-fetches
  /// follower->db() (an applying poll replaces the instance wholesale),
  /// sessions are forced read-only, and max_replica_lag gates reads. The
  /// poller must swap databases only under PauseExecution(). Not owned.
  void ServeFollower(replication::Follower* follower);

  /// Blocks request execution while held — the auto-poll daemon wraps each
  /// Follower::Poll in this so a rebuild never frees a database a worker
  /// is reading.
  std::unique_lock<std::mutex> PauseExecution() {
    return std::unique_lock<std::mutex>(exec_mu_);
  }

 private:
  struct Session;
  struct Request;

  Server(Database* db, ServerOptions options);

  Status Listen();
  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Session> session);
  void WorkerLoop();
  void HandleFrame(const std::shared_ptr<Session>& session, Frame frame);
  void HandleHttp(const std::shared_ptr<Session>& session,
                  std::string initial);
  void Execute(const Request& request);
  /// Writes one frame to the session (serialized per session); errors are
  /// swallowed — a vanished peer is not the server's failure.
  void WriteFrame(const std::shared_ptr<Session>& session, FrameType type,
                  const std::string& payload);
  void Shed(const std::shared_ptr<Session>& session, uint64_t id,
            const std::string& reason);
  /// The database requests execute against (the follower's current one
  /// when attached). Callers hold exec_mu_.
  Database* CurrentDb();
  void ReapFinishedReaders();
  uint64_t NowUs() const;

  Database* db_;
  ServerOptions options_;
  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  uint16_t port_ = 0;

  Socket listener_;
  std::atomic<bool> stop_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  /// Serializes request execution (and follower database swaps).
  std::mutex exec_mu_;
  replication::Follower* follower_ = nullptr;  // guarded by exec_mu_
  /// Lock-free mirror of `follower_ != nullptr` for the hello path.
  std::atomic<bool> follower_attached_{false};

  mutable std::mutex sessions_mu_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  std::vector<std::thread> finished_readers_;  // joined by the accept loop
  uint64_t next_session_id_ = 1;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;

  /// The counters stats() reports.
  obs::Gauge* m_connections_;
  obs::Counter* m_connections_total_;
  obs::Counter* m_connections_rejected_;
  obs::Counter* m_bytes_in_;
  obs::Counter* m_bytes_out_;
  obs::Counter* m_requests_;
  obs::Counter* m_sheds_;
  obs::Counter* m_protocol_errors_;
  obs::Counter* m_scrapes_;
  obs::Histogram* m_request_us_;
  /// The follower's lag gauge (same obs bundle), behind max_replica_lag.
  obs::Gauge* m_replica_lag_;
};

}  // namespace net
}  // namespace caddb

#endif  // CADDB_NET_SERVER_H_
