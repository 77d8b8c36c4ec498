// Batched-fsync machinery under concurrent committers: a dedicated syncer
// thread coalesces the fsyncs of overlapping commits (SyncPolicy::kAlways
// still acknowledges only after the covering fsync), checkpoint rotation
// drains the in-flight sync, and everything acknowledged is recovered.
// This test also runs under TSan in CI — it is the data-race probe for the
// syncer machinery.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/paper_schemas.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace caddb {
namespace wal {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::current_path() / "wal_batch_sync_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

constexpr int kThreads = 8;
constexpr int kCommitsPerThread = 50;

/// Each thread owns one object and bumps its Length once per committed
/// transaction; disjoint write sets, so no deadlocks and a recoverable
/// oracle: object t's Length must equal its thread's commit count.
void RunConcurrentCommitters(Database* db,
                             const std::vector<Surrogate>& objects) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([db, &objects, &failures, t] {
      for (int i = 1; i <= kCommitsPerThread; ++i) {
        auto txn = db->transactions().Begin("t" + std::to_string(t));
        if (!txn.ok()) {
          ++failures;
          return;
        }
        Status write = db->transactions().Write(*txn, objects[t], "Length",
                                                Value::Int(i));
        if (write.ok()) write = db->transactions().Commit(*txn);
        if (!write.ok()) {
          ++failures;
          (void)db->transactions().Abort(*txn);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
}

void VerifyRecovered(const std::string& dir) {
  auto recovered = Database::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery_report().tail_error.empty())
      << (*recovered)->recovery_report().ToString();
  std::vector<Surrogate> objects = (*recovered)->store().AllObjects();
  ASSERT_EQ(objects.size(), static_cast<size_t>(kThreads));
  for (Surrogate s : objects) {
    Result<Value> length = (*recovered)->Get(s, "Length");
    ASSERT_TRUE(length.ok()) << length.status().ToString();
    EXPECT_EQ(length->AsInt(), kCommitsPerThread);
  }
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST(WalBatchSyncTest, AlwaysPolicyCoalescesFsyncsAcrossCommitters) {
  const std::string dir = TestDir("always");
  {
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kAlways;
    options.wal.batched_fsync = true;
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(schemas::kGatesBase).ok());
    std::vector<Surrogate> objects;
    for (int t = 0; t < kThreads; ++t) {
      objects.push_back((*db)->CreateObject("SimpleGate").value());
    }
    RunConcurrentCommitters((*db).get(), objects);
    WalStats stats = (*db)->wal()->stats();
    EXPECT_GE(stats.commits,
              static_cast<uint64_t>(kThreads) * kCommitsPerThread);
    // Group commit: overlapping committers share fsyncs. Strictly fewer
    // fsyncs than commits is the entire point of the syncer thread.
    EXPECT_LT(stats.fsyncs, stats.commits) << stats.ToString();
    ASSERT_TRUE((*db)->wal()->Sync().ok());
    stats = (*db)->wal()->stats();
    EXPECT_EQ(stats.synced_lsn, stats.last_lsn);
    ASSERT_TRUE((*db)->Close().ok());
  }
  VerifyRecovered(dir);
}

TEST(WalBatchSyncTest, BatchPolicyWithSyncerThreadRecoversEverythingAcked) {
  const std::string dir = TestDir("batch");
  {
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kBatch;
    options.wal.batch_commits = 8;
    options.wal.batch_interval_us = 200;
    options.wal.batched_fsync = true;
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(schemas::kGatesBase).ok());
    std::vector<Surrogate> objects;
    for (int t = 0; t < kThreads; ++t) {
      objects.push_back((*db)->CreateObject("SimpleGate").value());
    }
    RunConcurrentCommitters((*db).get(), objects);
    ASSERT_TRUE((*db)->Close().ok());
  }
  VerifyRecovered(dir);
}

TEST(WalBatchSyncTest, RotationDrainsInFlightSyncsUnderLoad) {
  // A checkpointer thread rotates the log *while* the syncer has fsyncs in
  // flight; rotation must drain them (not deadlock, not sync a closed fd)
  // and truncation must not disturb acknowledged commits.
  const std::string dir = TestDir("rotate");
  {
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kAlways;
    options.wal.batched_fsync = true;
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(schemas::kGatesBase).ok());
    std::vector<Surrogate> objects;
    for (int t = 0; t < kThreads; ++t) {
      objects.push_back((*db)->CreateObject("SimpleGate").value());
    }
    const uint64_t segments_before = (*db)->wal()->stats().segments_created;
    std::atomic<bool> done{false};
    std::atomic<uint64_t> checkpoints{0};
    std::thread checkpointer([&] {
      // At least one rotation even if the committers finish first.
      do {
        Status s = (*db)->Checkpoint();
        ASSERT_TRUE(s.ok()) << s.ToString();
        ++checkpoints;
      } while (!done.load());
    });
    RunConcurrentCommitters((*db).get(), objects);
    done.store(true);
    checkpointer.join();
    WalStats stats = (*db)->wal()->stats();
    EXPECT_EQ(stats.segments_created, segments_before + checkpoints.load())
        << stats.ToString();
    ASSERT_TRUE((*db)->Close().ok());
  }
  VerifyRecovered(dir);
}

TEST(WalBatchSyncTest, ExplicitSyncsRaceCommittersSafely) {
  // A "checkpointer" thread hammering Sync() while committers run: Sync
  // must always return with synced_lsn caught up to the lsns it observed,
  // whichever thread's fsync ends up covering them.
  const std::string dir = TestDir("mixed_sync");
  DurabilityOptions options;
  options.wal.sync = SyncPolicy::kAlways;
  options.wal.batched_fsync = true;
  auto db = Database::Open(dir, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->ExecuteDdl(schemas::kGatesBase).ok());
  std::vector<Surrogate> objects;
  for (int t = 0; t < kThreads; ++t) {
    objects.push_back((*db)->CreateObject("SimpleGate").value());
  }
  std::atomic<bool> done{false};
  std::thread syncer([&] {
    while (!done.load()) {
      ASSERT_TRUE((*db)->wal()->Sync().ok());
    }
  });
  RunConcurrentCommitters((*db).get(), objects);
  done.store(true);
  syncer.join();
  WalStats stats = (*db)->wal()->stats();
  // kAlways acknowledges a commit only once its fsync landed, so with all
  // committers joined nothing can still be unsynced.
  EXPECT_EQ(stats.synced_lsn, stats.last_lsn);
  ASSERT_TRUE((*db)->Close().ok());
}

}  // namespace
}  // namespace wal
}  // namespace caddb
