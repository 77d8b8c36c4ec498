// Experiment E16 (EXPERIMENTS.md): the network service layer under load.
// (1) Wire overhead: one request round-trip over a loopback session versus
// the same command executed in-process — frame encode/decode and two
// socket hops. (2) Concurrency: aggregate throughput as the session count
// grows to 64 — each session's reader executes its own requests, serialized
// under the server's single execution lock, so the measure of merit is how
// well 64 readers contending for that lock keep the server busy without
// sheds.
// (3) Scrape cost: a full Prometheus exposition over HTTP.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "shell/dispatcher.h"

namespace {

using caddb::Database;
using caddb::bench::Abort;
using caddb::bench::Unwrap;

constexpr const char* kBoxDdl =
    "obj-type Box = attributes: W, H: integer; end Box;";

std::unique_ptr<caddb::net::Server> StartServer(Database* db) {
  caddb::net::ServerOptions options;
  options.max_connections = 128;
  return Unwrap(caddb::net::Server::Start(db, std::move(options)));
}

// ---- Wire overhead: one session, one request at a time ----

void BM_LocalShellExecute(benchmark::State& state) {
  Database db;
  Abort(db.ExecuteDdl(kBoxDdl));
  Abort(db.CreateObject("Box", "").status());
  Abort(db.Set(caddb::Surrogate{1}, "W", caddb::Value::Int(3)));
  caddb::shell::Dispatcher shell(&db);
  std::ostringstream out;
  for (auto _ : state) {
    out.str("");
    shell.ExecuteLine("get @1 W", out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalShellExecute);

void BM_RoundTripOverLoopback(benchmark::State& state) {
  Database db;
  Abort(db.ExecuteDdl(kBoxDdl));
  Abort(db.CreateObject("Box", "").status());
  Abort(db.Set(caddb::Surrogate{1}, "W", caddb::Value::Int(3)));
  auto server = StartServer(&db);
  auto client =
      Unwrap(caddb::net::Client::Connect("127.0.0.1", server->port()));
  std::string output;
  bool command_error = false;
  for (auto _ : state) {
    Abort(client->Execute("get @1 W", &output, &command_error));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoundTripOverLoopback);

// ---- Concurrent sessions: 1..64 clients hammering one server ----

void BM_ConcurrentSessions(benchmark::State& state) {
  const size_t n_sessions = static_cast<size_t>(state.range(0));
  Database db;
  Abort(db.ExecuteDdl(kBoxDdl));
  Abort(db.CreateObject("Box", "").status());
  Abort(db.Set(caddb::Surrogate{1}, "W", caddb::Value::Int(3)));
  auto server = StartServer(&db);

  // Connect every session up front; the measured region is requests only.
  std::vector<std::unique_ptr<caddb::net::Client>> clients;
  clients.reserve(n_sessions);
  for (size_t i = 0; i < n_sessions; ++i) {
    clients.push_back(
        Unwrap(caddb::net::Client::Connect("127.0.0.1", server->port())));
  }

  constexpr int kRequestsPerSession = 50;
  std::atomic<uint64_t> errors{0};
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(n_sessions);
    for (size_t i = 0; i < n_sessions; ++i) {
      threads.emplace_back([&, i] {
        std::string output;
        bool command_error = false;
        for (int r = 0; r < kRequestsPerSession; ++r) {
          if (!clients[i]
                   ->Execute("get @1 W", &output, &command_error)
                   .ok() ||
              command_error) {
            errors.fetch_add(1);
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (errors.load() != 0) {
    state.SkipWithError("request failed under concurrency");
  }
  state.SetItemsProcessed(state.iterations() * n_sessions *
                          kRequestsPerSession);
  state.counters["sessions"] = static_cast<double>(n_sessions);
  state.counters["sheds"] = static_cast<double>(server->stats().sheds);
}
// The work runs on the session threads, so items_per_second must divide
// by wall-clock time, not the main thread's CPU time.
BENCHMARK(BM_ConcurrentSessions)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->UseRealTime();

// ---- Scrape path ----

void BM_PrometheusScrape(benchmark::State& state) {
  Database db;
  Abort(db.ExecuteDdl(kBoxDdl));
  Abort(db.CreateObject("Box", "").status());
  auto server = StartServer(&db);
  for (auto _ : state) {
    std::string body = Unwrap(
        caddb::net::Client::HttpGet("127.0.0.1", server->port(), "/metrics"));
    benchmark::DoNotOptimize(body.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrometheusScrape);

}  // namespace
