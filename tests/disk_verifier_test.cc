// Tests for the offline disk verifier (`check disk`, CAD3xx): a pristine
// database and every crash-matrix state verify with zero errors, a
// corruption-injection matrix flips one byte (or forges one structure) per
// artifact class and expects exactly the matching code, the guarded `--fix`
// repairs round-trip back to clean, and the re-derived surrogate directory
// matches the live PagedHeap's.

#include "analysis/disk_verifier.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.h"
#include "core/database.h"
#include "fault/failpoint.h"
#include "replication/manifest.h"
#include "shell/dispatcher.h"
#include "storage/heap_record.h"
#include "storage/page.h"
#include "wal/checkpoint.h"
#include "wal/crc32c.h"
#include "wal/log_io.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace caddb {
namespace analysis {
namespace {

namespace fs = std::filesystem;

constexpr char kSchema[] =
    "obj-type Gate =\n"
    "  attributes:\n"
    "    Name: string;\n"
    "    Blob: string;\n"
    "end Gate;\n";

std::string TestDir(const std::string& name) {
  fs::path dir = fs::current_path() / "disk_verifier_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

/// Runs the verifier and asserts every emitted code is in the registry —
/// the "no unregistered diagnostics" contract, checked on every single
/// verification any test performs.
DiskVerifyReport Verify(const std::string& dir, bool fix = false) {
  DiskVerifyOptions options;
  options.fix = fix;
  Result<DiskVerifyReport> report = VerifyDiskArtifacts(dir, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  for (const Diagnostic& d : report->diagnostics.diagnostics()) {
    EXPECT_NE(FindCodeInfo(d.code), nullptr)
        << "unregistered diagnostic code " << d.code;
  }
  for (const Diagnostic& d : report->post_fix.diagnostics()) {
    EXPECT_NE(FindCodeInfo(d.code), nullptr)
        << "unregistered diagnostic code " << d.code;
  }
  return std::move(*report);
}

size_t CountCode(const DiagnosticBag& bag, const std::string& code) {
  size_t n = 0;
  for (const Diagnostic& d : bag.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

/// Builds a closed durable database whose page file spans several slotted
/// pages, overflow chains and freed pages, arranged so that the newest
/// checkpoint's page images cover only a few of them — corruption tests
/// need pages the images cannot heal. The final WAL segment holds frames
/// (post-checkpoint writes) for the log corruption tests.
std::string BuildDatabase(const std::string& name, int gates = 80,
                          size_t blob_bytes = 20000) {
  const std::string dir = TestDir(name);
  wal::DurabilityOptions options;
  options.buffer_pool_pages = 4;
  auto db = Database::Open(dir, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->ExecuteDdl(kSchema).ok());
  std::vector<Surrogate> created;
  for (int i = 0; i < gates; ++i) {
    Surrogate gate = (*db)->CreateObject("Gate").value();
    EXPECT_TRUE(
        (*db)->Set(gate, "Name", Value::String("g" + std::to_string(i))).ok());
    // Every fifth gate overflows across several pages; the rest stay
    // inline, big enough that they fill multiple slotted pages.
    size_t bytes = (i % 5 == 1) ? blob_bytes : 400;
    EXPECT_TRUE(
        (*db)
            ->Set(gate, "Blob", Value::String(std::string(bytes, 'a' + i % 26)))
            .ok());
    created.push_back(gate);
  }
  EXPECT_TRUE((*db)->Checkpoint().ok());
  // Free some pages (an overflow chain and an inline record), touch one
  // early object, checkpoint again: the second checkpoint's images cover
  // only these few pages, leaving the bulk of the file image-free.
  EXPECT_TRUE((*db)->Delete(created[1]).ok());
  EXPECT_TRUE((*db)->Delete(created[2]).ok());
  EXPECT_TRUE((*db)->Set(created[0], "Name", Value::String("touched")).ok());
  EXPECT_TRUE((*db)->Checkpoint().ok());
  // Post-checkpoint WAL traffic so the live segment holds several frames.
  EXPECT_TRUE((*db)->Set(created[4], "Name", Value::String("renamed")).ok());
  EXPECT_TRUE((*db)->Set(created[6], "Name", Value::String("renamed")).ok());
  EXPECT_TRUE((*db)->Set(created[8], "Name", Value::String("renamed")).ok());
  EXPECT_TRUE((*db)->Close().ok());
  return dir;
}

std::string ReadFile(const std::string& path) {
  Result<std::string> data = wal::ReadFileToString(path);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return *data;
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  ASSERT_TRUE(out.good());
}

std::string PagePath(const std::string& dir) {
  return (fs::path(dir) / "pages.db").string();
}

std::string ReadPage(const std::string& dir, uint32_t id) {
  std::string file = ReadFile(PagePath(dir));
  EXPECT_GE(file.size(), (id + 1) * size_t{storage::kPageSize});
  return file.substr(size_t{id} * storage::kPageSize, storage::kPageSize);
}

/// Writes `page` back at `id` with a freshly recomputed checksum, so the
/// corruption under test is the *semantic* one, not a checksum mismatch.
void WritePageRechecksummed(const std::string& dir, uint32_t id,
                            std::string page) {
  uint32_t crc =
      wal::Crc32cMask(wal::Crc32c(page.data() + 4, storage::kPageSize - 4));
  for (int i = 0; i < 4; ++i) {
    page[i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  std::string file = ReadFile(PagePath(dir));
  file.replace(size_t{id} * storage::kPageSize, storage::kPageSize, page);
  WriteFile(PagePath(dir), file);
}

struct PageScan {
  std::set<uint32_t> image_covered;   // pages the newest checkpoint heals
  std::vector<uint32_t> slotted;      // uncovered kSlotted pages
  std::vector<uint32_t> overflow_heads;
  std::vector<uint32_t> overflow_tails;  // non-head overflow pages
  std::vector<uint32_t> free_pages;      // zero or kFree
  uint32_t page_count = 0;
};

/// Classifies every page of a closed database the way the verifier sees it
/// (checkpoint page images overlaid), so tests can pick free pages from the
/// healed view and corruption targets that the newest checkpoint does NOT
/// heal (raw corruption must bite).
PageScan ScanPages(const std::string& dir) {
  PageScan scan;
  Result<wal::LoadedCheckpoint> checkpoint = wal::ReadNewestCheckpoint(dir);
  EXPECT_TRUE(checkpoint.ok());
  for (const auto& [id, image] : checkpoint->pages) {
    scan.image_covered.insert(id);
  }
  std::string file = ReadFile(PagePath(dir));
  scan.page_count = static_cast<uint32_t>(file.size() / storage::kPageSize);
  for (uint32_t id = 0; id < scan.page_count; ++id) {
    std::string raw =
        file.substr(size_t{id} * storage::kPageSize, storage::kPageSize);
    bool covered = scan.image_covered.count(id) != 0;
    const std::string& healed =
        covered ? checkpoint->pages.at(id) : raw;
    if (healed.size() != storage::kPageSize ||
        storage::Page::IsAllZero(healed)) {
      if (healed.size() == storage::kPageSize) scan.free_pages.push_back(id);
      continue;
    }
    Result<storage::Page> page = storage::Page::Parse(id, healed);
    if (!page.ok()) continue;
    if (page->kind() == storage::PageKind::kFree) {
      scan.free_pages.push_back(id);
      continue;
    }
    if (covered) continue;  // corrupting raw bytes would be healed away
    switch (page->kind()) {
      case storage::PageKind::kFree:
        break;
      case storage::PageKind::kSlotted:
        if (page->live_records() > 0) scan.slotted.push_back(id);
        break;
      case storage::PageKind::kOverflow: {
        const std::string& record = **page->Read(page->LiveSlots()[0]);
        if (!record.empty() && record[0] != 0) {
          scan.overflow_heads.push_back(id);
        } else {
          scan.overflow_tails.push_back(id);
        }
        break;
      }
    }
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Clean databases: the verifier must not cry wolf.
// ---------------------------------------------------------------------------

TEST(DiskVerifierTest, PristineDatabaseVerifiesClean) {
  const std::string dir = BuildDatabase("pristine");
  DiskVerifyReport report = Verify(dir);
  EXPECT_TRUE(report.Clean()) << report.RenderText();
  EXPECT_EQ(report.diagnostics.size(), 0u) << report.RenderText();
  EXPECT_TRUE(report.plan.empty());
  EXPECT_GT(report.pages_scanned, 0u);
  EXPECT_GT(report.segments_scanned, 0u);
  EXPECT_GT(report.checkpoints_scanned, 0u);
  EXPECT_FALSE(report.manifest_present);
  EXPECT_FALSE(report.directory.empty());
}

TEST(DiskVerifierTest, EmptyDirectoryVerifiesClean) {
  const std::string dir = TestDir("empty");
  DiskVerifyReport report = Verify(dir);
  EXPECT_TRUE(report.Clean()) << report.RenderText();
  EXPECT_EQ(report.pages_scanned, 0u);
}

TEST(DiskVerifierTest, MissingDirectoryIsAnErrorStatus) {
  Result<DiskVerifyReport> report =
      VerifyDiskArtifacts(TestDir("gone") + "/nope", DiskVerifyOptions{});
  EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// Crash states: every page-flush failpoint must verify with zero errors
// both before and after recovery (the no-false-positives contract).
// ---------------------------------------------------------------------------

/// Checkpointing workload for the crash matrix. `mark` runs after every
/// checkpoint; returning false stops mid-flight (the crash point).
Status CrashWorkload(Database* db, const std::function<bool()>& mark) {
  CADDB_RETURN_IF_ERROR(db->ExecuteDdl(kSchema));
  for (int i = 0; i < 6; ++i) {
    CADDB_ASSIGN_OR_RETURN(Surrogate gate, db->CreateObject("Gate"));
    CADDB_RETURN_IF_ERROR(
        db->Set(gate, "Blob", Value::String(std::string(9000, 'x'))));
    CADDB_RETURN_IF_ERROR(db->Checkpoint());
    if (!mark()) return OkStatus();
  }
  return OkStatus();
}

TEST(DiskVerifierTest, CrashAtPageFlushFailpointsVerifiesWithZeroErrors) {
  // Oracle pass: record the cumulative page-write count at every
  // durability point, so each torn-write run below can stop the workload
  // at the first point past its tear — a crashed process never keeps
  // checkpointing past the write the kernel dropped.
  std::vector<uint64_t> writes_at_mark;
  uint64_t total_writes = 0;
  {
    wal::DurabilityOptions options;
    options.buffer_pool_pages = 4;
    auto db = Database::Open(TestDir("crash_oracle"), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Database* raw = db->get();
    ASSERT_TRUE(CrashWorkload(raw, [&writes_at_mark, raw] {
                  writes_at_mark.push_back(raw->storage_stats().page_writes);
                  return true;
                }).ok());
    total_writes = (*db)->storage_stats().page_writes;
  }
  ASSERT_GT(total_writes, 4u);

  for (uint64_t n = 0; n < total_writes; n += 2) {
    SCOPED_TRACE("failpoint at page write " + std::to_string(n));
    size_t crash_mark = writes_at_mark.size() - 1;
    for (size_t i = 0; i < writes_at_mark.size(); ++i) {
      if (writes_at_mark[i] > n) {
        crash_mark = i;
        break;
      }
    }
    const std::string dir = TestDir("crash_" + std::to_string(n));
    {
      // Disarms on every exit, so the cut never reaches the checks below.
      struct DisarmOnExit {
        ~DisarmOnExit() { fault::FailpointRegistry::Global().DisarmAll(); }
      } disarm;
      // n whole pages land; write n is torn in half.
      ASSERT_TRUE(fault::FailpointRegistry::Global()
                      .ArmFromString("storage.file.cut cut=" +
                                     std::to_string(n * storage::kPageSize +
                                                    storage::kPageSize / 2))
                      .ok());
      wal::DurabilityOptions options;
      options.buffer_pool_pages = 4;
      auto db = Database::Open(dir, options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      size_t marks = 0;
      Status run = CrashWorkload(db->get(), [&marks, crash_mark] {
        return marks++ < crash_mark;
      });
      ASSERT_TRUE(run.ok()) << run.ToString();
      // Destroyed without Close: the crash.
    }
    DiskVerifyReport before = Verify(dir);
    EXPECT_EQ(before.diagnostics.error_count(), 0u) << before.RenderText();
    auto recovered = Database::Open(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_TRUE((*recovered)->Close().ok());
    DiskVerifyReport after = Verify(dir);
    EXPECT_EQ(after.diagnostics.error_count(), 0u) << after.RenderText();
  }
}

TEST(DiskVerifierTest, TornWalTailVerifiesWithZeroErrorsAndPlansRepair) {
  // Cut the live segment mid-frame with the same failpoint the crash
  // matrix uses, exactly a SIGKILL mid-append.
  const std::string dir = TestDir("wal_crash");
  {
    // Disarms on every exit, so the cut never reaches a later case.
    struct DisarmOnExit {
      ~DisarmOnExit() { fault::FailpointRegistry::Global().DisarmAll(); }
    } disarm;
    // Hit 1 is the segment Wal::Open creates; hit 2 is the live segment
    // Open's checkpoint rotates to, which gets the 600-byte budget.
    ASSERT_TRUE(fault::FailpointRegistry::Global()
                    .ArmFromString("wal.file.cut cut=600 --skip=1 --times=1")
                    .ok());
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(kSchema).ok());
    for (int i = 0; i < 20; ++i) {
      (void)(*db)->CreateObject("Gate");
    }
    // Destroyed without Close.
  }
  DiskVerifyReport report = Verify(dir);
  EXPECT_EQ(report.diagnostics.error_count(), 0u) << report.RenderText();
  // Whether the cut landed mid-frame depends on framing; when it did, the
  // finding is the guarded-repairable CAD312, never the stranded CAD311.
  EXPECT_EQ(CountCode(report.diagnostics, "CAD311"), 0u)
      << report.RenderText();
  for (const RepairAction& action : report.plan) {
    EXPECT_EQ(action.kind, "fix-wal-tail");
  }
}

// ---------------------------------------------------------------------------
// Corruption-injection matrix: one flip per artifact class, exactly the
// matching code fires.
// ---------------------------------------------------------------------------

TEST(DiskVerifierTest, Cad301PageChecksumMismatch) {
  const std::string dir = BuildDatabase("cad301");
  PageScan scan = ScanPages(dir);
  ASSERT_FALSE(scan.slotted.empty());
  uint32_t target = scan.slotted[0];
  std::string file = ReadFile(PagePath(dir));
  file[size_t{target} * storage::kPageSize + 100] ^= 0x40;  // one bit
  WriteFile(PagePath(dir), file);
  DiskVerifyReport report = Verify(dir);
  EXPECT_EQ(CountCode(report.diagnostics, "CAD301"), 1u)
      << report.RenderText();
  EXPECT_FALSE(report.Clean());
}

TEST(DiskVerifierTest, Cad301HealedByCheckpointImageIsOnlyAWarning) {
  const std::string dir = BuildDatabase("cad301_healed");
  PageScan scan = ScanPages(dir);
  ASSERT_FALSE(scan.image_covered.empty());
  uint32_t target = *scan.image_covered.begin();
  std::string file = ReadFile(PagePath(dir));
  if (size_t{target} * storage::kPageSize + 100 < file.size()) {
    file[size_t{target} * storage::kPageSize + 100] ^= 0x40;
    WriteFile(PagePath(dir), file);
    DiskVerifyReport report = Verify(dir);
    EXPECT_EQ(report.diagnostics.error_count(), 0u) << report.RenderText();
  }
}

TEST(DiskVerifierTest, Cad302WrongStoredPageId) {
  const std::string dir = BuildDatabase("cad302");
  PageScan scan = ScanPages(dir);
  ASSERT_FALSE(scan.slotted.empty());
  uint32_t target = scan.slotted[0];
  std::string page = ReadPage(dir, target);
  page[4] = static_cast<char>(page[4] ^ 0x01);  // stored id LSB
  WritePageRechecksummed(dir, target, page);
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD302"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad303SlotDirectoryOverrun) {
  const std::string dir = BuildDatabase("cad303");
  PageScan scan = ScanPages(dir);
  ASSERT_FALSE(scan.slotted.empty());
  uint32_t target = scan.slotted[0];
  std::string page = ReadPage(dir, target);
  page[18] = static_cast<char>(0xFF);  // slot count low byte
  page[19] = static_cast<char>(0x7F);
  WritePageRechecksummed(dir, target, page);
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD303"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad303OverlappingLiveSlots) {
  const std::string dir = BuildDatabase("cad303_overlap");
  PageScan scan = ScanPages(dir);
  // Find an uncovered slotted page with >= 2 live slots.
  uint32_t target = 0;
  bool found = false;
  for (uint32_t id : scan.slotted) {
    Result<storage::Page> page = storage::Page::Parse(id, ReadPage(dir, id));
    if (page.ok() && page->live_records() >= 2) {
      target = id;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  // Copy the first live slot's directory entry over the second live one:
  // two live slots now claim the same bytes.
  std::string page = ReadPage(dir, target);
  Result<std::vector<std::pair<uint16_t, uint16_t>>> slots =
      storage::Page::RawSlotDirectory(page);
  ASSERT_TRUE(slots.ok());
  size_t dir_bytes = slots->size() * storage::kSlotEntryBytes;
  size_t first_live = slots->size();
  size_t second_live = slots->size();
  for (size_t i = 0; i < slots->size(); ++i) {
    if ((*slots)[i].first == storage::kDeadSlotOffset) continue;
    if (first_live == slots->size()) {
      first_live = i;
    } else {
      second_live = i;
      break;
    }
  }
  ASSERT_LT(second_live, slots->size());
  size_t base = storage::kPageSize - dir_bytes;
  for (size_t b = 0; b < storage::kSlotEntryBytes; ++b) {
    page[base + second_live * storage::kSlotEntryBytes + b] =
        page[base + first_live * storage::kSlotEntryBytes + b];
  }
  WritePageRechecksummed(dir, target, page);
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD303"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad304RecordKeyedToDifferentSurrogate) {
  const std::string dir = BuildDatabase("cad304");
  PageScan scan = ScanPages(dir);
  ASSERT_FALSE(scan.slotted.empty());
  uint32_t target = scan.slotted[0];
  std::string page = ReadPage(dir, target);
  Result<storage::Page> parsed = storage::Page::Parse(target, page);
  ASSERT_TRUE(parsed.ok());
  // Rewrite the first live record's 8-byte key in place to a surrogate no
  // other record uses.
  Result<std::vector<std::pair<uint16_t, uint16_t>>> slots =
      storage::Page::RawSlotDirectory(page);
  ASSERT_TRUE(slots.ok());
  bool rewrote = false;
  for (const auto& [offset, length] : *slots) {
    if (offset == storage::kDeadSlotOffset) continue;
    page[offset] = static_cast<char>(0xEE);  // id LSB: now a bogus key
    page[offset + 1] = static_cast<char>(0xDD);
    page[offset + 2] = static_cast<char>(0x3B);
    rewrote = true;
    break;
  }
  ASSERT_TRUE(rewrote);
  WritePageRechecksummed(dir, target, page);
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD304"), 1u)
      << report.RenderText();
}

/// Rewrites the single overflow record of page `id`, patching its chain
/// header via `mutate(head_byte, id_bytes, next_bytes)` on the raw record.
void PatchOverflowRecord(const std::string& dir, uint32_t id,
                         const std::function<void(std::string*)>& mutate) {
  std::string page = ReadPage(dir, id);
  Result<std::vector<std::pair<uint16_t, uint16_t>>> slots =
      storage::Page::RawSlotDirectory(page);
  ASSERT_TRUE(slots.ok());
  for (const auto& [offset, length] : *slots) {
    if (offset == storage::kDeadSlotOffset) continue;
    std::string record = page.substr(offset, length);
    mutate(&record);
    ASSERT_EQ(record.size(), size_t{length});
    page.replace(offset, length, record);
    WritePageRechecksummed(dir, id, page);
    return;
  }
  FAIL() << "no live record on overflow page " << id;
}

void SetNextPointer(std::string* record, uint32_t next) {
  for (int i = 0; i < 4; ++i) {
    (*record)[9 + i] = static_cast<char>((next >> (8 * i)) & 0xFF);
  }
}

TEST(DiskVerifierTest, Cad305DanglingOverflowNextPointer) {
  const std::string dir = BuildDatabase("cad305");
  PageScan scan = ScanPages(dir);
  ASSERT_FALSE(scan.overflow_heads.empty());
  PatchOverflowRecord(dir, scan.overflow_heads[0], [](std::string* record) {
    SetNextPointer(record, 0x00FFFF00);  // far past any real page
  });
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD305"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad305ChainCycle) {
  const std::string dir = BuildDatabase("cad305_cycle");
  PageScan scan = ScanPages(dir);
  ASSERT_FALSE(scan.overflow_heads.empty());
  uint32_t head = scan.overflow_heads[0];
  PatchOverflowRecord(dir, head, [head](std::string* record) {
    SetNextPointer(record, head);  // head points back at itself
  });
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD305") +
                CountCode(report.diagnostics, "CAD306"),
            1u)
      << report.RenderText();
  EXPECT_GE(CountCode(report.diagnostics, "CAD305"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad306OrphanedOverflowPageAndGuardedReclaim) {
  const std::string dir = BuildDatabase("cad306");
  // Append a well-formed non-head overflow page that no chain references —
  // an orphan stranded by a lost chain, touching no live object.
  std::string file = ReadFile(PagePath(dir));
  uint32_t orphan_id =
      static_cast<uint32_t>(file.size() / storage::kPageSize);
  storage::Page orphan(orphan_id, storage::PageKind::kOverflow);
  ASSERT_TRUE(orphan
                  .Insert(storage::heap_record::OverflowRecord(
                      /*head=*/false, /*id=*/999999,
                      storage::heap_record::kNoChainPage, "lost chunk"))
                  .ok());
  WriteFile(PagePath(dir), file + orphan.Serialize());
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD306"), 1u)
      << report.RenderText();
  ASSERT_FALSE(report.plan.empty());
  for (const RepairAction& action : report.plan) {
    EXPECT_EQ(action.kind, "fix-orphan-page");
    EXPECT_FALSE(action.applied);  // dry run plans, never applies
  }

  // --fix reclaims the orphans and the re-verification is error-free.
  DiskVerifyReport fixed = Verify(dir, /*fix=*/true);
  EXPECT_TRUE(fixed.fix_applied);
  for (const RepairAction& action : fixed.plan) {
    EXPECT_TRUE(action.applied) << action.description;
  }
  EXPECT_EQ(fixed.post_fix.error_count(), 0u) << fixed.post_fix.RenderText();
  // And the store opens again (LoadAll refuses around orphans).
  auto db = Database::Open(dir);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (db.ok()) {
    ASSERT_TRUE((*db)->Close().ok());
  }
}

TEST(DiskVerifierTest, Cad307DuplicateSurrogate) {
  const std::string dir = BuildDatabase("cad307");
  PageScan scan = ScanPages(dir);
  // Give record B the key of record A (two live records, same page or two
  // pages).
  uint64_t first_id = 0;
  bool have_first = false;
  bool injected = false;
  for (uint32_t id : scan.slotted) {
    std::string page = ReadPage(dir, id);
    Result<std::vector<std::pair<uint16_t, uint16_t>>> slots =
        storage::Page::RawSlotDirectory(page);
    ASSERT_TRUE(slots.ok());
    bool dirty = false;
    for (const auto& [offset, length] : *slots) {
      if (offset == storage::kDeadSlotOffset || length < 8) continue;
      if (!have_first) {
        first_id = storage::heap_record::GetU64(page.data() + offset);
        have_first = true;
        continue;
      }
      for (int i = 0; i < 8; ++i) {
        page[offset + i] = static_cast<char>((first_id >> (8 * i)) & 0xFF);
      }
      dirty = true;
      injected = true;
      break;
    }
    if (dirty) WritePageRechecksummed(dir, id, page);
    if (injected) break;
  }
  ASSERT_TRUE(injected);
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD307"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad308ChainLinksToFreePage) {
  const std::string dir = BuildDatabase("cad308");
  PageScan scan = ScanPages(dir);
  ASSERT_FALSE(scan.overflow_heads.empty());
  ASSERT_FALSE(scan.free_pages.empty());
  uint32_t free_page = scan.free_pages[0];
  PatchOverflowRecord(dir, scan.overflow_heads[0],
                      [free_page](std::string* record) {
                        SetNextPointer(record, free_page);
                      });
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD308"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad309PageLsnBeyondDurableHorizon) {
  const std::string dir = BuildDatabase("cad309");
  PageScan scan = ScanPages(dir);
  ASSERT_FALSE(scan.slotted.empty());
  uint32_t target = scan.slotted[0];
  std::string page = ReadPage(dir, target);
  for (int i = 0; i < 8; ++i) {
    page[8 + i] = static_cast<char>(i == 5 ? 0x7F : 0);  // lsn ~= 2^45
  }
  WritePageRechecksummed(dir, target, page);
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD309"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad310TornPageFileTailAndGuardedTrim) {
  const std::string dir = BuildDatabase("cad310");
  std::string file = ReadFile(PagePath(dir));
  WriteFile(PagePath(dir), file + std::string(1234, 'Z'));
  DiskVerifyReport report = Verify(dir);
  EXPECT_EQ(CountCode(report.diagnostics, "CAD310"), 1u)
      << report.RenderText();
  EXPECT_EQ(report.diagnostics.error_count(), 0u)
      << "a torn tail is crash debris, not corruption: "
      << report.RenderText();

  DiskVerifyReport fixed = Verify(dir, /*fix=*/true);
  EXPECT_TRUE(fixed.fix_applied);
  EXPECT_EQ(fixed.post_fix.size(), 0u) << fixed.post_fix.RenderText();
  EXPECT_EQ(fs::file_size(PagePath(dir)) % storage::kPageSize, 0u);
}

std::vector<wal::SegmentFileInfo> Segments(const std::string& dir) {
  return wal::ListSegments(dir);
}

TEST(DiskVerifierTest, Cad311MidChainWalCorruptionStrandsRecords) {
  const std::string dir = BuildDatabase("cad311");
  std::vector<wal::SegmentFileInfo> segments = Segments(dir);
  ASSERT_FALSE(segments.empty());
  // Corrupt the FIRST frame of a segment that holds several, leaving
  // decodable frames stranded after the damage.
  bool injected = false;
  for (const wal::SegmentFileInfo& segment : segments) {
    std::string data = ReadFile(segment.path);
    wal::SegmentContents contents = wal::DecodeFrames(data);
    if (contents.frames.size() < 2) continue;
    data[wal::kFrameHeaderBytes / 2] ^= 0x10;  // inside frame 0's header
    WriteFile(segment.path, data);
    injected = true;
    break;
  }
  ASSERT_TRUE(injected) << "no segment with >= 2 frames";
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD311"), 1u)
      << report.RenderText();
  EXPECT_TRUE(report.plan.empty())
      << "stranded records must never be repaired away: "
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad312TornWalTailAndGuardedTruncate) {
  const std::string dir = BuildDatabase("cad312");
  std::vector<wal::SegmentFileInfo> segments = Segments(dir);
  ASSERT_FALSE(segments.empty());
  const wal::SegmentFileInfo& last = segments.back();
  std::string data = ReadFile(last.path);
  ASSERT_FALSE(wal::DecodeFrames(data).frames.empty());
  WriteFile(last.path, data.substr(0, data.size() - 5));  // mid-frame cut
  DiskVerifyReport report = Verify(dir);
  EXPECT_EQ(CountCode(report.diagnostics, "CAD312"), 1u)
      << report.RenderText();
  EXPECT_EQ(report.diagnostics.error_count(), 0u) << report.RenderText();

  DiskVerifyReport fixed = Verify(dir, /*fix=*/true);
  EXPECT_TRUE(fixed.fix_applied);
  EXPECT_EQ(fixed.post_fix.size(), 0u) << fixed.post_fix.RenderText();
  // The truncated log still recovers.
  auto db = Database::Open(dir);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (db.ok()) {
    ASSERT_TRUE((*db)->Close().ok());
  }
}

TEST(DiskVerifierTest, Cad313SeamGapBetweenSegments) {
  const std::string dir = BuildDatabase("cad313");
  std::vector<wal::SegmentFileInfo> segments = Segments(dir);
  ASSERT_FALSE(segments.empty());
  // Fabricate a successor segment whose name skips an lsn: seam gap.
  const wal::SegmentFileInfo& last = segments.back();
  wal::SegmentContents contents = wal::DecodeFrames(ReadFile(last.path));
  uint64_t end_lsn = contents.frames.empty() ? last.start_lsn - 1
                                             : contents.frames.back().lsn;
  std::string successor =
      (fs::path(dir) / wal::SegmentFileName(end_lsn + 3)).string();
  WriteFile(successor, wal::EncodeFrame(end_lsn + 3, "ghost"));
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD313") +
                CountCode(report.diagnostics, "CAD314"),
            1u)
      << report.RenderText();
  EXPECT_GE(CountCode(report.diagnostics, "CAD313"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad314ValidFrameWithUndecodablePayload) {
  const std::string dir = BuildDatabase("cad314");
  std::vector<wal::SegmentFileInfo> segments = Segments(dir);
  ASSERT_FALSE(segments.empty());
  const wal::SegmentFileInfo& last = segments.back();
  std::string data = ReadFile(last.path);
  wal::SegmentContents contents = wal::DecodeFrames(data);
  uint64_t next_lsn = contents.frames.empty() ? last.start_lsn
                                              : contents.frames.back().lsn + 1;
  WriteFile(last.path, data + wal::EncodeFrame(next_lsn, "not a record"));
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD314"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad315DamagedCheckpointBody) {
  const std::string dir = BuildDatabase("cad315");
  std::vector<wal::CheckpointFileInfo> checkpoints =
      wal::ListCheckpoints(dir);
  ASSERT_FALSE(checkpoints.empty());
  std::string data = ReadFile(checkpoints.back().path);
  data[data.size() / 2] ^= 0x01;
  WriteFile(checkpoints.back().path, data);
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD315"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad315RetiredCheckpointVersion) {
  // A version-2 (dump-based) checkpoint with a valid body CRC: only its
  // version makes it unreadable, and the verifier must say so.
  const std::string dir = TestDir("cad315_retired");
  const std::string body = "caddb-dump 1\nschema 0\n";
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                wal::Crc32cMask(wal::Crc32c(body.data(), body.size())));
  WriteFile((fs::path(dir) / wal::CheckpointFileName(0)).string(),
            "caddb-checkpoint 2 0 1 " + std::to_string(body.size()) + " " +
                crc_hex + "\n" + body);
  DiskVerifyReport report = Verify(dir);
  ASSERT_GE(CountCode(report.diagnostics, "CAD315"), 1u)
      << report.RenderText();
  EXPECT_NE(report.RenderText().find("unsupported checkpoint version 2"),
            std::string::npos)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad316ReplayFloorPastCoverLsn) {
  const std::string dir = TestDir("cad316");
  wal::CheckpointData data;
  data.meta = "";
  data.replay_from = 10;  // past the cover lsn below
  ASSERT_TRUE(wal::WriteCheckpoint(dir, /*lsn=*/5, /*generation=*/1, data)
                  .ok());
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD316"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad317InvalidCheckpointPageImage) {
  const std::string dir = TestDir("cad317");
  wal::CheckpointData data;
  data.pages.emplace_back(0u, std::string("short image"));
  ASSERT_TRUE(wal::WriteCheckpoint(dir, /*lsn=*/1, /*generation=*/1, data)
                  .ok());
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD317"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad318ReplayFloorNotCoveredBySegments) {
  const std::string dir = BuildDatabase("cad318");
  std::vector<wal::SegmentFileInfo> segments = Segments(dir);
  ASSERT_FALSE(segments.empty());
  // Rename the oldest segment a few lsns forward: the records between the
  // checkpoint and the new start are "missing".
  const wal::SegmentFileInfo& first = segments.front();
  fs::rename(first.path,
             fs::path(dir) / wal::SegmentFileName(first.start_lsn + 5));
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD318"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad319ManifestGenerationDisagreesWithCheckpoint) {
  const std::string dir = TestDir("cad319");
  ASSERT_TRUE(wal::WriteCheckpoint(dir, /*lsn=*/0, /*generation=*/7,
                                   wal::CheckpointData{})
                  .ok());
  std::vector<wal::CheckpointFileInfo> checkpoints =
      wal::ListCheckpoints(dir);
  ASSERT_EQ(checkpoints.size(), 1u);
  std::string bytes = ReadFile(checkpoints[0].path);
  replication::Manifest manifest;
  manifest.seq = 1;
  manifest.generation = 8;  // checkpoint says 7
  manifest.checkpoint.file =
      fs::path(checkpoints[0].path).filename().string();
  manifest.checkpoint.lsn = 0;
  manifest.checkpoint.bytes = bytes.size();
  manifest.checkpoint.crc = wal::Crc32c(bytes.data(), bytes.size());
  WriteFile((fs::path(dir) / replication::kManifestFileName).string(),
            manifest.Encode());
  DiskVerifyReport report = Verify(dir);
  EXPECT_TRUE(report.manifest_present);
  EXPECT_GE(CountCode(report.diagnostics, "CAD319"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad320UndecodableManifest) {
  const std::string dir = TestDir("cad320");
  WriteFile((fs::path(dir) / replication::kManifestFileName).string(),
            "caddb-replica 1 not-a-manifest\n");
  DiskVerifyReport report = Verify(dir);
  EXPECT_TRUE(report.manifest_present);
  EXPECT_GE(CountCode(report.diagnostics, "CAD320"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad321ManifestNamesMissingArtifact) {
  const std::string dir = TestDir("cad321");
  replication::Manifest manifest;
  manifest.seq = 1;
  manifest.generation = 1;
  manifest.checkpoint.file = wal::CheckpointFileName(1);
  manifest.checkpoint.lsn = 1;
  manifest.checkpoint.bytes = 99;
  manifest.checkpoint.crc = 0xDEAD;
  WriteFile((fs::path(dir) / replication::kManifestFileName).string(),
            manifest.Encode());
  DiskVerifyReport report = Verify(dir);
  EXPECT_GE(CountCode(report.diagnostics, "CAD321"), 1u)
      << report.RenderText();
}

TEST(DiskVerifierTest, Cad322QuarantinedReplica) {
  const std::string dir = BuildDatabase("cad322");
  WriteFile((fs::path(dir) / "QUARANTINE").string(),
            "CAD201: generation moved backwards\n");
  DiskVerifyReport report = Verify(dir);
  EXPECT_EQ(CountCode(report.diagnostics, "CAD322"), 1u)
      << report.RenderText();
  EXPECT_EQ(report.diagnostics.error_count(), 0u) << report.RenderText();
}

TEST(DiskVerifierTest, Cad323StaleTempFilesAndGuardedRemoval) {
  const std::string dir = BuildDatabase("cad323");
  WriteFile((fs::path(dir) / "checkpoint-暫.db.tmp").string(), "debris");
  WriteFile((fs::path(dir) / "other.tmp").string(), "debris");
  DiskVerifyReport report = Verify(dir);
  EXPECT_EQ(CountCode(report.diagnostics, "CAD323"), 2u)
      << report.RenderText();
  EXPECT_EQ(report.diagnostics.error_count(), 0u) << report.RenderText();

  DiskVerifyReport fixed = Verify(dir, /*fix=*/true);
  EXPECT_TRUE(fixed.fix_applied);
  EXPECT_EQ(fixed.post_fix.size(), 0u) << fixed.post_fix.RenderText();
}

// ---------------------------------------------------------------------------
// JSON rendering, repair-guard refusal, directory cross-check.
// ---------------------------------------------------------------------------

TEST(DiskVerifierTest, JsonReportCarriesCodesCountersAndPlan) {
  const std::string dir = BuildDatabase("json");
  std::string file = ReadFile(PagePath(dir));
  WriteFile(PagePath(dir), file + std::string(100, 'Z'));  // CAD310
  DiskVerifyReport report = Verify(dir);
  std::string json = report.RenderJson();
  EXPECT_NE(json.find("\"code\":\"CAD310\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"plan\":[{\"kind\":\"fix-page-tail\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pages\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"applied\":false"), std::string::npos) << json;
}

TEST(DiskVerifierTest, DryRunNeverTouchesTheFiles) {
  const std::string dir = BuildDatabase("dry_run");
  std::string file = ReadFile(PagePath(dir));
  WriteFile(PagePath(dir), file + std::string(100, 'Z'));
  uint64_t before = fs::file_size(PagePath(dir));
  DiskVerifyReport report = Verify(dir);  // fix = false
  EXPECT_FALSE(report.fix_applied);
  EXPECT_EQ(fs::file_size(PagePath(dir)), before);
}

TEST(DiskVerifierTest, WalTruncationRefusedWhenRecordsSurviveTheDamage) {
  // A torn-looking segment with a CRC-valid frame past the damage: the
  // guard must keep CAD311 out of the plan even under --fix.
  const std::string dir = BuildDatabase("guard");
  std::vector<wal::SegmentFileInfo> segments = Segments(dir);
  ASSERT_FALSE(segments.empty());
  const wal::SegmentFileInfo& last = segments.back();
  std::string data = ReadFile(last.path);
  wal::SegmentContents contents = wal::DecodeFrames(data);
  uint64_t next_lsn = contents.frames.empty() ? last.start_lsn
                                              : contents.frames.back().lsn + 1;
  // Garbage, then a perfectly valid frame stranded behind it.
  WriteFile(last.path, data + std::string(7, '\xFF') +
                           wal::EncodeFrame(next_lsn + 1, "stranded"));
  DiskVerifyReport report = Verify(dir, /*fix=*/true);
  EXPECT_GE(CountCode(report.diagnostics, "CAD311"), 1u)
      << report.RenderText();
  for (const RepairAction& action : report.plan) {
    EXPECT_NE(action.kind, "fix-wal-tail") << action.description;
  }
  EXPECT_EQ(fs::file_size(last.path),
            data.size() + 7 + wal::kFrameHeaderBytes + 8);
}

TEST(DiskVerifierTest, DerivedDirectoryMatchesLivePagedHeap) {
  const std::string dir = BuildDatabase("directory");
  // Open publishes a fresh checkpoint, so disk and heap agree exactly.
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE((*db)->heap(), nullptr);
  auto live = (*db)->heap()->DirectorySnapshot();
  {
    auto pause = (*db)->PauseCheckpoints();
    ASSERT_TRUE((*db)->wal()->Sync().ok());
    DiskVerifyReport report = Verify((*db)->wal()->dir());
    EXPECT_EQ(report.diagnostics.error_count(), 0u) << report.RenderText();
    EXPECT_EQ(report.directory, live);
  }
  ASSERT_TRUE((*db)->Close().ok());
}

TEST(DiskVerifierTest, ShippedReplicaDirectoryVerifiesClean) {
  const std::string primary_dir = TestDir("ship_primary");
  const std::string replica_dir = TestDir("ship_replica");
  {
    auto db = Database::Open(primary_dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(kSchema).ok());
    for (int i = 0; i < 5; ++i) {
      Surrogate gate = (*db)->CreateObject("Gate").value();
      ASSERT_TRUE(
          (*db)->Set(gate, "Blob", Value::String(std::string(9000, 'r')))
              .ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    shell::Dispatcher sh(db->get());
    std::ostringstream out;
    ASSERT_TRUE(sh.ExecuteLine("ship " + replica_dir, out));
    ASSERT_EQ(sh.error_count(), 0u) << out.str();
    ASSERT_TRUE((*db)->Close().ok());
  }
  DiskVerifyReport report = Verify(replica_dir);
  EXPECT_TRUE(report.manifest_present);
  EXPECT_EQ(report.diagnostics.error_count(), 0u) << report.RenderText();
}

}  // namespace
}  // namespace analysis
}  // namespace caddb
