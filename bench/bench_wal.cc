// Durability benchmarks: commit throughput under the three sync policies
// (the group-commit payoff the paper-era engineering argument rests on),
// checkpoint cost at netlist scale, and recovery replay time as a function
// of log length.

#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "wal/wal.h"
#include "workload/generator.h"

namespace caddb {
namespace bench {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the build tree (never /tmp).
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::current_path() / "bench_wal_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

/// Auto-committed attribute writes against a durable database; arg 0 is the
/// SyncPolicy (0 = always, 1 = batch, 2 = none). Every Set appends one redo
/// record and hits the policy's commit path, so items/s is commits/s.
void BM_WalCommitThroughput(benchmark::State& state) {
  const auto policy = static_cast<wal::SyncPolicy>(state.range(0));
  const std::string dir = FreshDir("commit");
  wal::DurabilityOptions options;
  options.wal.sync = policy;
  auto db = Unwrap(Database::Open(dir, options));
  LoadGatesSchema(db.get());
  Surrogate iface = NewInterface(db.get(), 2);
  int64_t tick = 0;
  for (auto _ : state) {
    Abort(db->Set(iface, "Length", Value::Int(1 + (++tick % 500))));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(wal::SyncPolicyName(policy));
  state.counters["fsyncs"] = static_cast<double>(db->wal()->stats().fsyncs);
  Abort(db->Close());
}
BENCHMARK(BM_WalCommitThroughput)->DenseRange(0, 2)->UseRealTime();

/// Explicit two-write transactions (Begin/Write/Write/Commit) — the commit
/// marker is the only forced sync point, so group commit amortizes across
/// whole transactions, not records.
void BM_WalTxnCommit(benchmark::State& state) {
  const auto policy = static_cast<wal::SyncPolicy>(state.range(0));
  const std::string dir = FreshDir("txn");
  wal::DurabilityOptions options;
  options.wal.sync = policy;
  auto db = Unwrap(Database::Open(dir, options));
  LoadGatesSchema(db.get());
  Surrogate iface = NewInterface(db.get(), 2);
  int64_t tick = 0;
  for (auto _ : state) {
    TxnId txn = Unwrap(db->transactions().Begin("bench"));
    Abort(db->transactions().Write(txn, iface, "Length",
                                   Value::Int(1 + (++tick % 500))));
    Abort(db->transactions().Write(txn, iface, "Width", Value::Int(6)));
    Abort(db->transactions().Commit(txn));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(wal::SyncPolicyName(policy));
  state.counters["fsyncs"] = static_cast<double>(db->wal()->stats().fsyncs);
  Abort(db->Close());
}
BENCHMARK(BM_WalTxnCommit)->DenseRange(0, 2)->UseRealTime();

/// Concurrent committers under SyncPolicy::kAlways: `range(0)` threads each
/// run Begin/Write/Commit loops against their own object. Group commit:
/// the committer that finds no fsync in flight leads one outside the log
/// mutex, and it acknowledges every commit buffered before it, so
/// commits/s should scale with the thread count instead of being
/// serialized behind the disk. `commits_per_fsync` is the batching
/// achieved.
void BM_WalConcurrentCommitters(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::string dir = FreshDir("concurrent");
  wal::DurabilityOptions options;
  options.wal.sync = wal::SyncPolicy::kAlways;
  auto db = Unwrap(Database::Open(dir, options));
  LoadGatesSchema(db.get());
  std::vector<Surrogate> objects;
  for (int t = 0; t < threads; ++t) {
    objects.push_back(Unwrap(db->CreateObject("SimpleGate")));
  }
  const wal::WalStats before = db->wal()->stats();
  constexpr int kCommitsPerThread = 64;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&db, &objects, t] {
        for (int i = 0; i < kCommitsPerThread; ++i) {
          TxnId txn = Unwrap(db->transactions().Begin("bench"));
          Abort(db->transactions().Write(txn, objects[t], "Length",
                                         Value::Int(1 + i)));
          Abort(db->transactions().Commit(txn));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  state.SetItemsProcessed(state.iterations() * threads * kCommitsPerThread);
  const wal::WalStats after = db->wal()->stats();
  state.counters["fsyncs"] = static_cast<double>(after.fsyncs);
  state.counters["commits"] = static_cast<double>(after.commits);
  // Over the timed loops only (set-up commits and fsyncs excluded).
  const uint64_t fsyncs = after.fsyncs - before.fsyncs;
  state.counters["commits_per_fsync"] =
      fsyncs == 0 ? 0.0
                  : static_cast<double>(after.commits - before.commits) /
                        static_cast<double>(fsyncs);
  Abort(db->Close());
}
BENCHMARK(BM_WalConcurrentCommitters)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Checkpoint publication (dump + atomic write + log truncation) against a
/// generated netlist of `range(0)` composites.
void BM_Checkpoint(benchmark::State& state) {
  const std::string dir = FreshDir("checkpoint");
  wal::DurabilityOptions options;
  options.wal.sync = wal::SyncPolicy::kNone;
  auto db = Unwrap(Database::Open(dir, options));
  LoadGatesSchema(db.get());
  workload::NetlistParams params;
  params.composites = static_cast<int>(state.range(0));
  Unwrap(workload::GenerateNetlist(db.get(), params));
  for (auto _ : state) {
    Abort(db->Checkpoint());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["objects"] = static_cast<double>(db->store().size());
  Abort(db->Close());
}
BENCHMARK(BM_Checkpoint)->Range(4, 64);

/// Commit latency while a checkpointer runs continuously in the background
/// (`range(0)`: 0 = quiesced baseline, 1 = checkpoint storm). With the paged
/// store the checkpoint only stalls committers for its capture phase, so the
/// two rows should sit within ~10% of each other; a stop-the-world dump
/// would put the storm row at a multiple of the baseline. The pause_p99_us
/// counter is the capture-phase stall straight from the engine's histogram.
void BM_WalCommitDuringCheckpoint(benchmark::State& state) {
  const bool storming = state.range(0) != 0;
  const std::string dir = FreshDir(storming ? "during_ckpt" : "no_ckpt");
  wal::DurabilityOptions options;
  options.wal.sync = wal::SyncPolicy::kBatch;
  auto db = Unwrap(Database::Open(dir, options));
  LoadGatesSchema(db.get());
  workload::NetlistParams params;
  params.composites = 32;  // enough pages that a checkpoint batch is real work
  Unwrap(workload::GenerateNetlist(db.get(), params));
  Surrogate iface = NewInterface(db.get(), 2);
  std::atomic<bool> stop{false};
  std::thread checkpointer;
  if (storming) {
    checkpointer = std::thread([&db, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        Abort(db->Checkpoint());
      }
    });
  }
  int64_t tick = 0;
  for (auto _ : state) {
    Abort(db->Set(iface, "Length", Value::Int(1 + (++tick % 500))));
  }
  stop.store(true, std::memory_order_relaxed);
  if (checkpointer.joinable()) checkpointer.join();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(storming ? "checkpoint-storm" : "quiesced");
  obs::MetricsSnapshot snapshot = db->observability()->metrics.Snapshot();
  if (const obs::HistogramSample* pause =
          snapshot.FindHistogram("caddb_wal_checkpoint_pause_us")) {
    state.counters["checkpoints"] = static_cast<double>(pause->data.count);
    if (pause->data.count > 0) {
      state.counters["pause_p99_us"] = pause->data.Percentile(0.99);
    }
  }
  Abort(db->Close());
}
BENCHMARK(BM_WalCommitDuringCheckpoint)->DenseRange(0, 1)->UseRealTime();

/// Crash recovery: replay of a `range(0)`-operation log into a fresh
/// process. The pristine directory (checkpoint of an empty database + one
/// segment of logged operations) is prepared once; each iteration recovers
/// a copy of it, so the measured work is checkpoint load + full replay +
/// fsck + fresh-checkpoint publication — exactly what Database::Open does
/// after a crash.
void BM_WalRecovery(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const std::string pristine = FreshDir("recovery_pristine");
  {
    wal::DurabilityOptions options;
    options.wal.sync = wal::SyncPolicy::kNone;
    auto db = Unwrap(Database::Open(pristine, options));
    LoadGatesSchema(db.get());
    Surrogate iface = NewInterface(db.get(), 2);
    for (int i = 0; i < ops; ++i) {
      Abort(db->Set(iface, "Length", Value::Int(1 + i % 500)));
    }
    Abort(db->Close());
  }
  uint64_t replayed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string dir = FreshDir("recovery_work");
    fs::copy(pristine, dir,
             fs::copy_options::overwrite_existing |
                 fs::copy_options::recursive);
    state.ResumeTiming();
    auto db = Unwrap(Database::Open(dir));
    replayed = db->recovery_report().records_applied;
    benchmark::DoNotOptimize(db->store().size());
    state.PauseTiming();
    Abort(db->Close());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * ops);
  state.counters["replayed"] = static_cast<double>(replayed);
}
BENCHMARK(BM_WalRecovery)->Range(64, 4096);

}  // namespace
}  // namespace bench
}  // namespace caddb
