// caddb as a network service.
//
//   ./build/examples/caddb_server <dir> [--port P]
//       Primary: open (or create) the durable database under <dir> and
//       serve the full shell verb set over the framed TCP protocol, plus
//       Prometheus text on plain `GET /metrics` at the same port.
//
//   ./build/examples/caddb_server <dir> --ship <replica-dir>
//       Primary with a replication fleet: a background auto-ship daemon
//       publishes checkpoint + log into <replica-dir> on an interval — no
//       manual `ship` needed.
//
//   ./build/examples/caddb_server --follow <replica-dir> [--max-lag N]
//       Follower: an auto-poll daemon tails the replica tree and serves a
//       read-only query service over the same protocol. With --max-lag,
//       requests are shed while replication lag exceeds N (the
//       caddb_replication_replica_lag gauge) — stale replicas refuse reads
//       instead of serving them.
//
// Flags:
//   --port P               listen port (default 4217; 0 = ephemeral)
//   --bind ADDR            bind address (default 127.0.0.1)
//   --port-file PATH       write the bound port to PATH once listening
//                          (how CI discovers an ephemeral port)
//   --read-only            every session is read-only
//   --max-connections N    admission cap (default 64)
//   --ship DIR             auto-ship to DIR (primary mode)
//   --ship-interval-ms N   auto-ship cadence (default 200)
//   --staged DIR           follower staging dir (default <replica>/.staged;
//                          give each follower of a shared tree its own)
//   --poll-interval-ms N   auto-poll cadence (default 200)
//   --max-lag N            shed reads when replication lag exceeds N
//   --deadline-ms N        shed requests that waited longer than N ms for
//                          the execution lock (bounded latency under
//                          chaos; 0 = off)
//   --log-file PATH        append structured events as JSONL to PATH
//   --log-level LVL        minimum event level: debug|info|warn|error|off
//                          (default info)
//   --log-rate-limit N     at most N sink lines per second (default 1000;
//                          the in-memory ring is never limited)
//   --history-interval-ms N   metrics-history snapshot cadence feeding
//                          `metrics --watch` and `/vars?window=`
//                          (default 1000; 0 = off)
//   --trace                start with tracing enabled (how a read-only
//                          follower gets spans: its sessions cannot run
//                          `trace on`)
//
// SIGINT/SIGTERM shut down cleanly: stop daemons, drain the server, close
// the database, exit 0.

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "core/database.h"
#include "net/server.h"
#include "obs/observability.h"
#include "replication/daemon.h"
#include "replication/follower.h"
#include "replication/shipper.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct Flags {
  std::string dir;
  std::string bind = "127.0.0.1";
  uint16_t port = 4217;
  std::string port_file;
  bool follow = false;
  bool read_only = false;
  size_t max_connections = 64;
  std::string ship_dir;
  uint64_t ship_interval_ms = 200;
  std::string staged_dir;
  uint64_t poll_interval_ms = 200;
  int64_t max_lag = -1;
  uint64_t deadline_ms = 0;
  std::string log_file;
  std::string log_level = "info";
  uint64_t log_rate_limit = 1000;
  uint64_t history_interval_ms = 1000;
  bool trace = false;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << name << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--follow") {
      const char* v = value("--follow");
      if (v == nullptr) return false;
      flags->follow = true;
      flags->dir = v;
    } else if (arg == "--port") {
      const char* v = value("--port");
      if (v == nullptr) return false;
      flags->port = static_cast<uint16_t>(std::stoul(v));
    } else if (arg == "--bind") {
      const char* v = value("--bind");
      if (v == nullptr) return false;
      flags->bind = v;
    } else if (arg == "--port-file") {
      const char* v = value("--port-file");
      if (v == nullptr) return false;
      flags->port_file = v;
    } else if (arg == "--read-only") {
      flags->read_only = true;
    } else if (arg == "--max-connections") {
      const char* v = value("--max-connections");
      if (v == nullptr) return false;
      flags->max_connections = std::stoul(v);
    } else if (arg == "--ship") {
      const char* v = value("--ship");
      if (v == nullptr) return false;
      flags->ship_dir = v;
    } else if (arg == "--ship-interval-ms") {
      const char* v = value("--ship-interval-ms");
      if (v == nullptr) return false;
      flags->ship_interval_ms = std::stoull(v);
    } else if (arg == "--staged") {
      const char* v = value("--staged");
      if (v == nullptr) return false;
      flags->staged_dir = v;
    } else if (arg == "--poll-interval-ms") {
      const char* v = value("--poll-interval-ms");
      if (v == nullptr) return false;
      flags->poll_interval_ms = std::stoull(v);
    } else if (arg == "--max-lag") {
      const char* v = value("--max-lag");
      if (v == nullptr) return false;
      flags->max_lag = std::stoll(v);
    } else if (arg == "--deadline-ms") {
      const char* v = value("--deadline-ms");
      if (v == nullptr) return false;
      flags->deadline_ms = std::stoull(v);
    } else if (arg == "--log-file") {
      const char* v = value("--log-file");
      if (v == nullptr) return false;
      flags->log_file = v;
    } else if (arg == "--log-level") {
      const char* v = value("--log-level");
      if (v == nullptr) return false;
      flags->log_level = v;
    } else if (arg == "--log-rate-limit") {
      const char* v = value("--log-rate-limit");
      if (v == nullptr) return false;
      flags->log_rate_limit = std::stoull(v);
    } else if (arg == "--history-interval-ms") {
      const char* v = value("--history-interval-ms");
      if (v == nullptr) return false;
      flags->history_interval_ms = std::stoull(v);
    } else if (arg == "--trace") {
      flags->trace = true;
    } else if (!arg.empty() && arg[0] != '-' && flags->dir.empty()) {
      flags->dir = arg;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return false;
    }
  }
  if (flags->dir.empty()) {
    std::cerr << "use: caddb_server <dir> [--port P] [--ship DIR] |\n"
                 "     caddb_server --follow <replica-dir> [--max-lag N]\n";
    return false;
  }
  return true;
}

void WaitForSignal() {
  while (g_stop == 0) {
    // Signals interrupt the sleep; 50ms bounds the worst-case latency.
    struct timespec ts = {0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  caddb::net::ServerOptions server_options;
  server_options.bind_address = flags.bind;
  server_options.port = flags.port;
  server_options.max_connections = flags.max_connections;
  server_options.read_only = flags.read_only;
  server_options.max_replica_lag = flags.max_lag;
  server_options.request_deadline_us = flags.deadline_ms * 1000;

  std::unique_ptr<caddb::Database> db;
  std::unique_ptr<caddb::replication::Follower> follower;
  std::unique_ptr<caddb::replication::Shipper> shipper;
  std::unique_ptr<caddb::replication::AutoShipper> auto_shipper;
  std::unique_ptr<caddb::replication::AutoPoller> auto_poller;
  std::unique_ptr<caddb::net::Server> server;
  // The follower's databases come and go with each rebuild; one bundle
  // outlives them all so the scrape path and the lag gauge are stable.
  auto obs = std::make_unique<caddb::obs::Observability>();

  if (flags.follow) {
    caddb::replication::FollowerOptions follower_options;
    follower_options.obs = obs.get();
    follower_options.staged_dir = flags.staged_dir;
    follower = std::make_unique<caddb::replication::Follower>(
        flags.dir, std::move(follower_options));
    server_options.read_only = true;
    server_options.obs = obs.get();
    auto started =
        caddb::net::Server::Start(nullptr, std::move(server_options));
    if (!started.ok()) {
      std::cerr << "cannot listen: " << started.status().ToString() << "\n";
      return 2;
    }
    server = std::move(*started);
    server->ServeFollower(follower.get());
    caddb::replication::DaemonOptions poll_options;
    poll_options.interval_ms = flags.poll_interval_ms;
    auto_poller = std::make_unique<caddb::replication::AutoPoller>(
        follower.get(), std::move(poll_options),
        [s = server.get()] { return s->PauseExecution(); });
    std::cout << "caddb_server: follower of " << flags.dir << " serving on "
              << server->address() << std::endl;
  } else {
    auto opened = caddb::Database::Open(flags.dir);
    if (!opened.ok()) {
      std::cerr << "cannot open database directory '" << flags.dir
                << "': " << opened.status().ToString() << "\n";
      return 2;
    }
    db = std::move(*opened);
    auto started =
        caddb::net::Server::Start(db.get(), std::move(server_options));
    if (!started.ok()) {
      std::cerr << "cannot listen: " << started.status().ToString() << "\n";
      return 2;
    }
    server = std::move(*started);
    if (!flags.ship_dir.empty()) {
      shipper = std::make_unique<caddb::replication::Shipper>(
          db.get(), flags.ship_dir);
      caddb::replication::DaemonOptions ship_options;
      ship_options.interval_ms = flags.ship_interval_ms;
      auto_shipper = std::make_unique<caddb::replication::AutoShipper>(
          shipper.get(), std::move(ship_options));
      std::cout << "caddb_server: auto-shipping to " << flags.ship_dir
                << " every ~" << flags.ship_interval_ms << "ms" << std::endl;
    }
    std::cout << "caddb_server: serving " << flags.dir << " on "
              << server->address() << std::endl;
  }

  // The follower serves from the external bundle; a primary's bundle lives
  // inside its Database. All the observability wiring targets whichever one
  // the server actually reports from.
  caddb::obs::Observability* active_obs =
      flags.follow ? obs.get() : db->observability();
  {
    caddb::obs::LogLevel level;
    if (!caddb::obs::ParseLogLevel(flags.log_level, &level)) {
      std::cerr << "bad --log-level '" << flags.log_level
                << "' (debug|info|warn|error|off)\n";
      return 2;
    }
    active_obs->log.set_level(level);
    active_obs->log.set_sink_rate_limit(flags.log_rate_limit);
    if (!flags.log_file.empty()) {
      caddb::Status opened = active_obs->log.OpenSink(flags.log_file);
      if (!opened.ok()) {
        std::cerr << "cannot open --log-file: " << opened.ToString() << "\n";
        return 2;
      }
    }
  }
  if (flags.history_interval_ms > 0) {
    active_obs->history.Start(flags.history_interval_ms);
  }
  if (flags.trace) active_obs->trace.Enable();
  CADDB_LOG(&active_obs->log, caddb::obs::LogLevel::kInfo, "net",
            std::string("serving on ") + server->address() +
                (flags.follow ? " (follower)" : " (primary)"));

  if (!flags.port_file.empty()) {
    std::ofstream f(flags.port_file);
    f << server->port() << "\n";
  }

  WaitForSignal();
  std::cout << "caddb_server: shutting down" << std::endl;
  CADDB_LOG(&active_obs->log, caddb::obs::LogLevel::kInfo, "net",
            "shutting down");
  if (auto_shipper != nullptr) auto_shipper->Stop();
  if (auto_poller != nullptr) auto_poller->Stop();
  server->Shutdown();
  active_obs->history.Stop();
  active_obs->log.CloseSink();
  if (db != nullptr) {
    caddb::Status closed = db->Close();
    if (!closed.ok()) {
      std::cerr << "close failed: " << closed.ToString() << "\n";
      return 2;
    }
  }
  std::cout << "caddb_server: clean shutdown" << std::endl;
  return 0;
}
