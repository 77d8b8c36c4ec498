// Integration tests for the paged object store: a gate-library workload
// twice the buffer-pool budget (bounded residency, demand paging, identical
// state across a reopen), a crash matrix that kills the process at every
// page-flush failpoint and recovers, and the `storage status` shell view.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "core/database.h"
#include "fault/failpoint.h"
#include "persist/dump.h"
#include "shell/dispatcher.h"
#include "storage/page.h"
#include "wal/recovery.h"

namespace caddb {
namespace {

namespace fs = std::filesystem;

using wal::DurabilityOptions;

constexpr char kGateSchema[] =
    "obj-type Gate =\n"
    "  attributes:\n"
    "    Name: string;\n"
    "    Blob: string;\n"
    "    Length: integer;\n"
    "end Gate;\n";

std::string TestDir(const std::string& name) {
  fs::path dir = fs::current_path() / "store_paged_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

/// Dump -> load into a fresh database -> dump: normalizes surrogate
/// numbering so states reached along different histories compare equal.
std::string CanonicalDump(const Database& db) {
  Result<std::string> dump = persist::Dumper::Dump(db);
  EXPECT_TRUE(dump.ok()) << dump.status().ToString();
  Database fresh;
  Status loaded = persist::Dumper::Load(*dump, &fresh);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  Result<std::string> again = persist::Dumper::Dump(fresh);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  return *again;
}

/// Deterministic blob for gate `i`, revision `rev`.
std::string Blob(int i, int rev, size_t bytes) {
  std::string blob(bytes, ' ');
  for (size_t k = 0; k < bytes; ++k) {
    blob[k] = static_cast<char>('a' + (i * 31 + rev * 7 + k) % 26);
  }
  return blob;
}

/// Gate-library workload: creates `gates` gates with `blob_bytes` payloads,
/// rewrites a third of them, deletes a seventh, checkpointing every
/// `checkpoint_every` operations. Calls `mark` after every durability
/// point; returns false from `mark` to stop mid-flight (the crash matrix).
Status RunGateWorkload(Database* db, int gates, size_t blob_bytes,
                       int checkpoint_every,
                       const std::function<bool()>& mark) {
  int ops = 0;
  bool stopped = false;
  auto step = [&](Status status) -> Status {
    CADDB_RETURN_IF_ERROR(status);
    if (++ops % checkpoint_every == 0) {
      CADDB_RETURN_IF_ERROR(db->Checkpoint());
    }
    if (!mark()) {
      stopped = true;
      return FailedPrecondition("workload stopped by mark");
    }
    return OkStatus();
  };

  Status run = [&]() -> Status {
    CADDB_RETURN_IF_ERROR(step(db->ExecuteDdl(kGateSchema)));
    std::vector<Surrogate> created;
    for (int i = 0; i < gates; ++i) {
      CADDB_ASSIGN_OR_RETURN(Surrogate gate, db->CreateObject("Gate"));
      CADDB_RETURN_IF_ERROR(step(OkStatus()));
      CADDB_RETURN_IF_ERROR(
          step(db->Set(gate, "Name", Value::String("gate-" + std::to_string(i)))));
      CADDB_RETURN_IF_ERROR(
          step(db->Set(gate, "Blob", Value::String(Blob(i, 0, blob_bytes)))));
      CADDB_RETURN_IF_ERROR(step(db->Set(gate, "Length", Value::Int(i))));
      created.push_back(gate);
    }
    for (int i = 0; i < gates; i += 3) {
      CADDB_RETURN_IF_ERROR(step(
          db->Set(created[i], "Blob", Value::String(Blob(i, 1, blob_bytes)))));
    }
    for (int i = 0; i < gates; i += 7) {
      CADDB_RETURN_IF_ERROR(step(db->Delete(created[i])));
    }
    CADDB_RETURN_IF_ERROR(db->Checkpoint());
    CADDB_RETURN_IF_ERROR(step(OkStatus()));
    return OkStatus();
  }();
  if (stopped) return OkStatus();  // a deliberate crash point, not an error
  return run;
}

TEST(StorePagedTest, WorkloadTwiceThePoolBudgetStaysBoundedAndCorrect) {
  const std::string dir = TestDir("bounded");
  constexpr int kGates = 64;
  constexpr size_t kBlobBytes = 2048;  // ~17 data pages of payload
  constexpr size_t kPoolPages = 8;     // half the data set, by construction
  constexpr size_t kBudget = 16;       // a quarter of the objects resident

  DurabilityOptions options;
  options.buffer_pool_pages = kPoolPages;
  options.resident_object_budget = kBudget;
  std::string final_dump;
  {
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(RunGateWorkload(db->get(), kGates, kBlobBytes, 16,
                                [] { return true; })
                    .ok());

    Database::StorageStats stats = (*db)->storage_stats();
    ASSERT_TRUE(stats.paged);
    // The data set genuinely overflows the pool...
    EXPECT_GE(stats.heap.data_pages + stats.heap.overflow_pages,
              2 * kPoolPages);
    EXPECT_GT(stats.pool.evictions, 0u);
    // Residency is bounded by the budget: everything else was trimmed and
    // comes back through the pager on demand.
    EXPECT_LE(stats.resident_objects, kBudget);
    EXPECT_LT(stats.resident_objects, stats.heap.objects);

    // Demand paging serves trimmed objects transparently (and correctly).
    int checked = 0;
    for (Surrogate s : (*db)->store().AllObjects()) {
      Result<Value> name = (*db)->Get(s, "Name");
      if (!name.ok()) continue;  // class objects et al.
      Result<Value> blob = (*db)->Get(s, "Blob");
      ASSERT_TRUE(blob.ok()) << blob.status().ToString();
      EXPECT_EQ(blob->AsString().size(), kBlobBytes);
      ++checked;
    }
    EXPECT_EQ(checked, kGates - (kGates + 6) / 7);
    stats = (*db)->storage_stats();
    EXPECT_GT(stats.pool.misses, 0u);
    // Steady state: the frame count is bounded by the pool, not the data —
    // the checkpoint's pinned-batch overcommit drains on subsequent
    // fetches.
    EXPECT_LE(stats.pool.pages, kPoolPages + stats.pool.pinned);

    EXPECT_FALSE((*db)->CheckStore().HasErrors());
    final_dump = CanonicalDump(**db);
  }
  // Reopen from pages + checkpoint + log: identical state, fsck-clean.
  auto db = Database::Open(dir, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->recovery_report().fsck_ran);
  EXPECT_FALSE((*db)->CheckStore().HasErrors());
  EXPECT_EQ(CanonicalDump(**db), final_dump);
}

TEST(StorePagedTest, CrashAtEveryPageFlushFailpointRecovers) {
  // Pass 1 — oracle: run uninterrupted, recording after every durability
  // point the canonical state and the cumulative page-write count. The
  // write counter is deterministic, so "the crash landed inside the
  // checkpoint before mark i" can be computed from the oracle alone.
  struct MarkPoint {
    std::string dump;
    uint64_t page_writes = 0;
  };
  constexpr int kGates = 24;
  constexpr size_t kBlobBytes = 900;
  constexpr int kCheckpointEvery = 7;
  constexpr size_t kPoolPages = 4;

  std::vector<MarkPoint> oracle;
  uint64_t total_writes = 0;
  {
    DurabilityOptions options;
    options.buffer_pool_pages = kPoolPages;
    auto db = Database::Open(TestDir("matrix_oracle"), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Database* raw = db->get();
    ASSERT_TRUE(RunGateWorkload(raw, kGates, kBlobBytes, kCheckpointEvery,
                                [&oracle, raw] {
                                  oracle.push_back(
                                      {CanonicalDump(*raw),
                                       raw->storage_stats().page_writes});
                                  return true;
                                })
                    .ok());
    total_writes = (*db)->storage_stats().page_writes;
  }
  ASSERT_GT(total_writes, 10u) << "workload exercises too few page writes";

  // Pass 2 — the matrix: tear page write N mid-pwrite with the
  // `storage.file.cut` failpoint (every write after it is dropped and
  // fsync lies, i.e. SIGKILL), stop the workload at the first durability
  // point past the tear, "crash", and reopen clean. The
  // published checkpoint's page images must heal every torn page, and the
  // recovered state must equal the oracle at that durability point.
  for (uint64_t n = 0; n < total_writes; ++n) {
    SCOPED_TRACE("page-flush failpoint at write " + std::to_string(n));
    size_t crash_mark = oracle.size() - 1;
    for (size_t i = 0; i < oracle.size(); ++i) {
      if (oracle[i].page_writes > n) {
        crash_mark = i;
        break;
      }
    }
    const std::string dir = TestDir("matrix_" + std::to_string(n));
    {
      // Disarms on every exit, so the cut never reaches the reopen below.
      struct DisarmOnExit {
        ~DisarmOnExit() { fault::FailpointRegistry::Global().DisarmAll(); }
      } disarm;
      // n whole pages land; write n is torn in half.
      ASSERT_TRUE(fault::FailpointRegistry::Global()
                      .ArmFromString("storage.file.cut cut=" +
                                     std::to_string(n * storage::kPageSize +
                                                    storage::kPageSize / 2))
                      .ok());
      DurabilityOptions options;
      options.buffer_pool_pages = kPoolPages;
      auto db = Database::Open(dir, options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      size_t marks = 0;
      Status run = RunGateWorkload(
          db->get(), kGates, kBlobBytes, kCheckpointEvery,
          [&marks, crash_mark] { return marks++ < crash_mark; });
      ASSERT_TRUE(run.ok()) << run.ToString();
      // Crash: the Database is destroyed with torn page writes on disk
      // and no further checkpoint. (Close() never writes pages.)
    }
    DurabilityOptions options;
    options.buffer_pool_pages = kPoolPages;
    auto recovered = Database::Open(dir, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE((*recovered)->recovery_report().fsck_ran);
    EXPECT_FALSE((*recovered)->CheckStore().HasErrors());
    EXPECT_EQ(CanonicalDump(**recovered), oracle[crash_mark].dump);
  }
}

TEST(StorePagedTest, CleanPageWriteErrorFailsCheckpointButKeepsTheBatch) {
  // A checkpoint whose in-place phase hits a clean I/O error reports it,
  // the store's dirty bookkeeping survives, and the next checkpoint (error
  // burned off) lands everything.
  const std::string dir = TestDir("clean_error");
  // Disarms on every exit, so the error never reaches a later case.
  struct DisarmOnExit {
    ~DisarmOnExit() { fault::FailpointRegistry::Global().DisarmAll(); }
  } disarm;
  // The very first page write fails.
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromString("storage.page.write error --times=1")
                  .ok());
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->ExecuteDdl(kGateSchema).ok());
  Surrogate gate = (*db)->CreateObject("Gate").value();
  ASSERT_TRUE((*db)->Set(gate, "Name", Value::String("resilient")).ok());
  EXPECT_FALSE((*db)->Checkpoint().ok());
  EXPECT_TRUE((*db)->Checkpoint().ok());
  std::string before = CanonicalDump(**db);
  ASSERT_TRUE((*db)->Close().ok());

  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(CanonicalDump(**reopened), before);
}

TEST(StorePagedTest, ShellStorageStatusReportsThePagedStore) {
  const std::string dir = TestDir("shell_status");
  DurabilityOptions options;
  options.buffer_pool_pages = 4;
  auto db = Database::Open(dir, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->ExecuteDdl(kGateSchema).ok());
  Surrogate gate = (*db)->CreateObject("Gate").value();
  ASSERT_TRUE((*db)->Set(gate, "Name", Value::String("g")).ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());

  shell::Dispatcher sh(db->get());
  std::ostringstream text;
  ASSERT_TRUE(sh.ExecuteLine("storage status", text));
  EXPECT_NE(text.str().find("objects:"), std::string::npos) << text.str();
  EXPECT_NE(text.str().find("pool:"), std::string::npos) << text.str();
  std::ostringstream json;
  ASSERT_TRUE(sh.ExecuteLine("storage status --format=json", json));
  EXPECT_NE(json.str().find("\"data_pages\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"pool\""), std::string::npos) << json.str();

  // A non-durable database has no paged store to report on.
  Database memory_only;
  shell::Dispatcher memory_shell(&memory_only);
  std::ostringstream err;
  ASSERT_TRUE(memory_shell.ExecuteLine("storage status", err));
  EXPECT_NE(err.str().find("error"), std::string::npos) << err.str();
}

TEST(StorePagedTest, ReadOnlyOpenServesPagedObjectsWithoutWriting) {
  const std::string dir = TestDir("read_only");
  std::string before;
  {
    DurabilityOptions options;
    options.buffer_pool_pages = 4;
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(RunGateWorkload(db->get(), 16, 1024, 16, [] { return true; })
                    .ok());
    before = CanonicalDump(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto snapshot_bytes = [&dir] {
    std::map<std::string, uintmax_t> sizes;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) {
        sizes[entry.path().filename().string()] = entry.file_size();
      }
    }
    return sizes;
  };
  auto sizes_before = snapshot_bytes();
  auto ro = Database::OpenReadOnly(dir);
  ASSERT_TRUE(ro.ok()) << ro.status().ToString();
  EXPECT_TRUE((*ro)->read_only());
  EXPECT_EQ(CanonicalDump(**ro), before);
  EXPECT_EQ(snapshot_bytes(), sizes_before)
      << "read-only open modified the directory";
}

}  // namespace
}  // namespace caddb
