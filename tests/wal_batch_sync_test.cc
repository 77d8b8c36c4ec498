// Group commit under concurrent committers: the committer that finds no
// fsync in flight leads one outside the log mutex, and it covers every
// commit buffered before it (SyncPolicy::kAlways still acknowledges only
// after the covering fsync); checkpoint rotation waits out the in-flight
// fsync; a failed fsync reaches every commit it covered and poisons the
// log; everything acknowledged is recovered. This test also runs under
// TSan in CI — it is the data-race probe for the leader hand-off.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/paper_schemas.h"
#include "fault/failpoint.h"
#include "wal/log_io.h"
#include "wal/record.h"
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
    // fsyncs than commits is the entire point of the leader hand-off.
    EXPECT_LT(stats.fsyncs, stats.commits) << stats.ToString();
    ASSERT_TRUE((*db)->wal()->Sync().ok());
    stats = (*db)->wal()->stats();
    EXPECT_EQ(stats.synced_lsn, stats.last_lsn);
    ASSERT_TRUE((*db)->Close().ok());
  }
  VerifyRecovered(dir);
}

TEST(WalBatchSyncTest, BatchPolicyRecoversEverythingAcked) {
  const std::string dir = TestDir("batch");
  {
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kBatch;
    options.wal.batch_commits = 8;
    options.wal.batch_interval_us = 200;
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
  // A checkpointer thread rotates the log *while* leaders have fsyncs in
  // flight; rotation must wait them out (not deadlock, not sync a closed
  // fd) and truncation must not disturb acknowledged commits.
  const std::string dir = TestDir("rotate");
  {
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kAlways;
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

TEST(WalBatchSyncTest, FailedGroupFsyncFailsEveryCoveredCommitAndSticks) {
  // The fsync after the first ten fails while eight kAlways committers
  // race. Each committer records its transactions in order and stops at
  // its first error; afterwards the log itself says which commit markers
  // the failed fsync covered (those past the last synced lsn).
  const std::string dir = TestDir("failed_fsync");
  std::vector<std::vector<std::pair<uint64_t, bool>>> outcomes(kThreads);
  std::vector<int> last_acked(kThreads, 0);
  uint64_t synced_lsn = 0;
  std::string wal_dir;
  {
    // Disarms on every exit, so the fault never reaches a later case.
    struct DisarmOnExit {
      ~DisarmOnExit() { fault::FailpointRegistry::Global().DisarmAll(); }
    } disarm;
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kAlways;
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(schemas::kGatesBase).ok());
    std::vector<Surrogate> objects;
    for (int t = 0; t < kThreads; ++t) {
      objects.push_back((*db)->CreateObject("SimpleGate").value());
      // Width names the thread, so recovery can match objects to threads.
      ASSERT_TRUE((*db)->Set(objects[t], "Width", Value::Int(t)).ok());
    }
    ASSERT_TRUE(fault::FailpointRegistry::Global()
                    .ArmFromString("wal.append.pre_fsync error --skip=10 "
                                   "--times=1")
                    .ok());
    Database* raw = db->get();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([raw, &objects, &outcomes, &last_acked, t] {
        for (int i = 1; i <= kCommitsPerThread; ++i) {
          auto txn = raw->transactions().Begin("t" + std::to_string(t));
          if (!txn.ok()) return;
          Status write = raw->transactions().Write(*txn, objects[t],
                                                   "Length", Value::Int(i));
          if (!write.ok()) {
            (void)raw->transactions().Abort(*txn);
            return;
          }
          const bool acked = raw->transactions().Commit(*txn).ok();
          outcomes[t].push_back({*txn, acked});
          if (!acked) return;
          last_acked[t] = i;
        }
      });
    }
    for (auto& thread : threads) thread.join();  // none may hang

    uint64_t fired = 0;
    for (const fault::SiteInfo& site :
         fault::FailpointRegistry::Global().List()) {
      if (site.name == fault::sites::kWalAppendPreFsync) fired = site.fired;
    }
    EXPECT_EQ(fired, 1u);
    // Sticky: the log refuses every later write and sync with the error.
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_LT(last_acked[t], kCommitsPerThread) << "thread " << t;
    }
    auto txn = (*db)->transactions().Begin("late");
    ASSERT_TRUE(txn.ok());
    Status late =
        (*db)->transactions().Write(*txn, objects[0], "Length", Value::Int(0));
    if (late.ok()) {
      late = (*db)->transactions().Commit(*txn);
    } else {
      (void)(*db)->transactions().Abort(*txn);
    }
    EXPECT_FALSE(late.ok());
    Status sync = (*db)->wal()->Sync();
    EXPECT_FALSE(sync.ok());
    EXPECT_NE(sync.ToString().find(fault::sites::kWalAppendPreFsync),
              std::string::npos)
        << sync.ToString();
    synced_lsn = (*db)->wal()->stats().synced_lsn;
    wal_dir = (*db)->wal()->dir();
  }  // Close fails on the poisoned log; what was written stays on disk

  std::map<uint64_t, uint64_t> commit_lsn;  // txn -> its marker's lsn
  for (const SegmentFileInfo& segment : ListSegments(wal_dir)) {
    Result<std::string> bytes = ReadFileToString(segment.path);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    for (const Frame& frame : DecodeFrames(*bytes).frames) {
      Result<Record> record = Record::Decode(frame.payload);
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      if (record->type == RecordType::kCommit) {
        commit_lsn[record->txn] = frame.lsn;
      }
    }
  }
  std::map<uint64_t, bool> acked_by_txn;
  int failed_commits = 0;
  for (const auto& thread : outcomes) {
    for (const auto& [txn, acked] : thread) {
      acked_by_txn[txn] = acked;
      if (!acked) ++failed_commits;
      auto marker = commit_lsn.find(txn);
      if (acked) {
        // Acknowledged means covered by a successful fsync.
        ASSERT_NE(marker, commit_lsn.end()) << "txn " << txn;
        EXPECT_LE(marker->second, synced_lsn) << "txn " << txn;
      } else if (marker != commit_lsn.end()) {
        EXPECT_GT(marker->second, synced_lsn) << "txn " << txn;
      }
    }
  }
  EXPECT_GE(failed_commits, 1);
  // Every marker the failed fsync covered (past synced_lsn) belongs to a
  // committer that got the error; every marker before it was acknowledged.
  int covered_by_failure = 0;
  for (const auto& [txn, lsn] : commit_lsn) {
    auto outcome = acked_by_txn.find(txn);
    if (outcome == acked_by_txn.end()) continue;  // set-up commits
    EXPECT_EQ(outcome->second, lsn <= synced_lsn) << "txn " << txn;
    if (lsn > synced_lsn) ++covered_by_failure;
  }
  EXPECT_GE(covered_by_failure, 1);

  // Reopen: every acknowledged commit is there. (The failed commits'
  // records were written before the fsync failed, so they may be too.)
  auto recovered = Database::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::vector<Surrogate> objects = (*recovered)->store().AllObjects();
  ASSERT_EQ(objects.size(), static_cast<size_t>(kThreads));
  for (Surrogate s : objects) {
    Result<Value> width = (*recovered)->Get(s, "Width");
    ASSERT_TRUE(width.ok()) << width.status().ToString();
    const int t = static_cast<int>(width->AsInt());
    ASSERT_TRUE(t >= 0 && t < kThreads);
    Result<Value> length = (*recovered)->Get(s, "Length");
    ASSERT_TRUE(length.ok()) << length.status().ToString();
    const int64_t got = length->is_null() ? 0 : length->AsInt();
    EXPECT_GE(got, last_acked[t]) << "thread " << t;
    EXPECT_LE(got, last_acked[t] + 1) << "thread " << t;
  }
  ASSERT_TRUE((*recovered)->Close().ok());
}

}  // namespace
}  // namespace wal
}  // namespace caddb
