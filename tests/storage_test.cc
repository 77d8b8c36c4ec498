// Unit tests for the paged storage layer: slotted pages (serialize/parse,
// slot reuse, checksum), the page file manager (positioned I/O, sparse
// holes, allocation, fault injection), the buffer pool (pin/unpin, clock
// eviction, the WAL flushed-LSN rule), and the paged record heap
// (inline + overflow payloads, checkpoint batches, startup scan).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fault/failpoint.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/page.h"
#include "storage/paged_heap.h"
#include "util/result.h"

namespace caddb {
namespace storage {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::current_path() / "storage_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

std::string PagePath(const std::string& dir) {
  return (fs::path(dir) / kPageFileName).string();
}

/// Arms `directive` on the global failpoint registry for one scope and
/// disarms every site on exit, so a fault never reaches a later case.
class ScopedFault {
 public:
  explicit ScopedFault(const std::string& directive) {
    Status armed = fault::FailpointRegistry::Global().ArmFromString(directive);
    EXPECT_TRUE(armed.ok()) << armed.ToString();
  }
  ~ScopedFault() { fault::FailpointRegistry::Global().DisarmAll(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

/// The `storage.file.cut` directive that lands `whole` page writes and
/// tears the next one in half.
std::string CutAfterPages(uint64_t whole) {
  return "storage.file.cut cut=" +
         std::to_string(whole * kPageSize + kPageSize / 2);
}

// ---- Page ----

TEST(PageTest, InsertReadUpdateEraseRoundTrip) {
  Page page(7);
  Result<uint16_t> a = page.Insert("alpha");
  Result<uint16_t> b = page.Insert("beta");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(page.live_records(), 2u);
  EXPECT_EQ(**page.Read(*a), "alpha");
  ASSERT_TRUE(page.Update(*b, "beta-prime").ok());
  EXPECT_EQ(**page.Read(*b), "beta-prime");
  ASSERT_TRUE(page.Erase(*a).ok());
  EXPECT_EQ(page.live_records(), 1u);
  EXPECT_FALSE(page.Read(*a).ok());
  // The dead slot is reused by the next insert.
  Result<uint16_t> c = page.Insert("gamma");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);
}

TEST(PageTest, SerializeParsePreservesRecordsLsnAndKind) {
  Page page(3, PageKind::kOverflow);
  page.set_lsn(0xDEADBEEFull);
  ASSERT_TRUE(page.Insert("one").ok());
  Result<uint16_t> dead = page.Insert("two");
  ASSERT_TRUE(dead.ok());
  ASSERT_TRUE(page.Insert("three").ok());
  ASSERT_TRUE(page.Erase(*dead).ok());

  std::string bytes = page.Serialize();
  ASSERT_EQ(bytes.size(), kPageSize);
  Result<Page> parsed = Page::Parse(3, bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind(), PageKind::kOverflow);
  EXPECT_EQ(parsed->lsn(), 0xDEADBEEFull);
  EXPECT_EQ(parsed->live_records(), 2u);
  EXPECT_EQ(**parsed->Read(0), "one");
  EXPECT_FALSE(parsed->Read(*dead).ok());
  EXPECT_EQ(**parsed->Read(2), "three");
}

TEST(PageTest, ParseRejectsCorruptionAndWrongId) {
  Page page(5);
  ASSERT_TRUE(page.Insert("payload").ok());
  std::string bytes = page.Serialize();

  std::string flipped = bytes;
  flipped[kPageHeaderBytes + 2] ^= 0x40;  // body corruption -> CRC mismatch
  EXPECT_FALSE(Page::Parse(5, flipped).ok());

  EXPECT_FALSE(Page::Parse(6, bytes).ok());  // read landed on the wrong page
  EXPECT_FALSE(Page::Parse(5, bytes.substr(0, 100)).ok());  // short read
}

TEST(PageTest, FitsTracksFreeBytesAndFullPageRefusesInsert) {
  Page page(0);
  const std::string record(1024, 'x');
  size_t inserted = 0;
  while (page.Fits(record.size())) {
    ASSERT_TRUE(page.Insert(record).ok());
    ++inserted;
  }
  EXPECT_GT(inserted, 5u);
  EXPECT_EQ(page.Insert(record).status().code(), Code::kFailedPrecondition);
  // A max-size record exactly fills an empty page.
  Page big(1);
  EXPECT_TRUE(big.Fits(Page::MaxRecordBytes()));
  ASSERT_TRUE(big.Insert(std::string(Page::MaxRecordBytes(), 'y')).ok());
  EXPECT_FALSE(big.Fits(1));
}

TEST(PageTest, AllZeroDetection) {
  EXPECT_TRUE(Page::IsAllZero(std::string(kPageSize, '\0')));
  std::string almost(kPageSize, '\0');
  almost[kPageSize - 1] = 1;
  EXPECT_FALSE(Page::IsAllZero(almost));
  EXPECT_FALSE(Page::IsAllZero(Page(0).Serialize()));
}

// ---- FileManager ----

TEST(FileManagerTest, WriteReadRoundTripAndSparseHoles) {
  std::string dir = TestDir("fm_roundtrip");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok()) << fm.status().ToString();

  Page page(2);
  ASSERT_TRUE(page.Insert("hello").ok());
  ASSERT_TRUE((*fm)->WritePage(2, page.Serialize()).ok());
  ASSERT_TRUE((*fm)->Sync().ok());

  Result<std::string> back = (*fm)->ReadPage(2);
  ASSERT_TRUE(back.ok());
  Result<Page> parsed = Page::Parse(2, *back);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(**parsed->Read(0), "hello");

  // Page 0 and 1 were never written: they read back as zeros.
  Result<std::string> hole = (*fm)->ReadPage(0);
  ASSERT_TRUE(hole.ok());
  EXPECT_TRUE(Page::IsAllZero(*hole));
  EXPECT_EQ((*fm)->page_count(), 3u);
  EXPECT_EQ((*fm)->writes(), 1u);
}

TEST(FileManagerTest, AllocationUsesFreelistBeforeGrowth) {
  std::string dir = TestDir("fm_alloc");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  EXPECT_EQ((*fm)->AllocatePage(), 0u);
  EXPECT_EQ((*fm)->AllocatePage(), 1u);
  EXPECT_EQ((*fm)->AllocatePage(), 2u);
  (*fm)->FreePage(1);
  EXPECT_EQ((*fm)->AllocatePage(), 1u);  // freelist first
  EXPECT_EQ((*fm)->AllocatePage(), 3u);  // then growth
}

TEST(FileManagerTest, MarkLiveSkipsOccupiedPagesOnAllocation) {
  std::string dir = TestDir("fm_marklive");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  (*fm)->MarkLive(0);
  (*fm)->MarkLive(2);
  uint32_t a = (*fm)->AllocatePage();
  uint32_t b = (*fm)->AllocatePage();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, 2u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(b, 2u);
  EXPECT_NE(a, b);
}

TEST(FileManagerTest, OverlayServesImagesWithoutTouchingTheFile) {
  std::string dir = TestDir("fm_overlay");
  {
    auto fm = FileManager::Open(PagePath(dir), {});
    ASSERT_TRUE(fm.ok());
    Page stale(0);
    ASSERT_TRUE(stale.Insert("stale").ok());
    ASSERT_TRUE((*fm)->WritePage(0, stale.Serialize()).ok());
  }
  FileManagerOptions ro;
  ro.read_only = true;
  auto fm = FileManager::Open(PagePath(dir), ro);
  ASSERT_TRUE(fm.ok());
  Page healed(0);
  ASSERT_TRUE(healed.Insert("healed").ok());
  (*fm)->SetOverlay({{0, healed.Serialize()}});
  Result<std::string> read = (*fm)->ReadPage(0);
  ASSERT_TRUE(read.ok());
  Result<Page> parsed = Page::Parse(0, *read);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(**parsed->Read(0), "healed");
}

TEST(FileManagerTest, InjectedWriteErrorFailsCleanly) {
  std::string dir = TestDir("fm_error");
  ScopedFault fault("storage.page.write error --skip=1 --times=1");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  Page page(0);
  ASSERT_TRUE((*fm)->WritePage(0, page.Serialize()).ok());
  EXPECT_FALSE((*fm)->WritePage(1, Page(1).Serialize()).ok());
  // Writes after the injected error go through again.
  EXPECT_TRUE((*fm)->WritePage(2, Page(2).Serialize()).ok());
}

TEST(FileManagerTest, FileCutTearsTheBoundaryWrite) {
  std::string dir = TestDir("fm_torn");
  {
    ScopedFault fault(CutAfterPages(1));
    auto fm = FileManager::Open(PagePath(dir), {});
    ASSERT_TRUE(fm.ok());
    Page p0(0);
    ASSERT_TRUE(p0.Insert("torn").ok());
    Page p1(1);
    ASSERT_TRUE(p1.Insert("durable").ok());
    // Page 1 lands whole and extends the file past page 0's region, so the
    // tear below is mid-file (a tail tear is rounded away on reopen).
    ASSERT_TRUE((*fm)->WritePage(1, p1.Serialize()).ok());
    // The boundary write is torn in half but still acknowledged, and the
    // following sync lies — exactly a SIGKILL mid-pwrite.
    ASSERT_TRUE((*fm)->WritePage(0, p0.Serialize()).ok());
    ASSERT_TRUE((*fm)->Sync().ok());
  }
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  Result<std::string> good = (*fm)->ReadPage(1);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(Page::Parse(1, *good).ok());
  Result<std::string> torn = (*fm)->ReadPage(0);
  ASSERT_TRUE(torn.ok());
  EXPECT_FALSE(Page::Parse(0, *torn).ok());
  EXPECT_FALSE(Page::IsAllZero(*torn));  // the front half did land
}

TEST(FileManagerTest, TornTailPageIsTrimmedToAHoleOnReopen) {
  std::string dir = TestDir("fm_torn_tail");
  {
    ScopedFault fault(CutAfterPages(1));
    auto fm = FileManager::Open(PagePath(dir), {});
    ASSERT_TRUE(fm.ok());
    Page p0(0);
    ASSERT_TRUE(p0.Insert("durable").ok());
    ASSERT_TRUE((*fm)->WritePage(0, p0.Serialize()).ok());
    Page p1(1);
    ASSERT_TRUE(p1.Insert("torn tail").ok());
    ASSERT_TRUE((*fm)->WritePage(1, p1.Serialize()).ok());  // torn at EOF
  }
  // The half page at the tail was never covered by a published checkpoint;
  // reopen rounds the file down and the page reads as a fresh hole.
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  Result<std::string> hole = (*fm)->ReadPage(1);
  ASSERT_TRUE(hole.ok());
  EXPECT_TRUE(Page::IsAllZero(*hole));
  EXPECT_TRUE(Page::Parse(0, *(*fm)->ReadPage(0)).ok());
}

// ---- BufferPool ----

TEST(BufferPoolTest, FetchPinsAndCountsHitsAndMisses) {
  std::string dir = TestDir("bp_basic");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  BufferPool pool(fm->get(), BufferPoolOptions{});

  Result<Page*> page = pool.Fetch(0);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE((*page)->Insert("cached").ok());
  pool.MarkDirty(0);
  pool.Unpin(0);

  Result<Page*> again = pool.Fetch(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *page);  // same frame, not a re-read
  pool.Unpin(0);

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.pages, 1u);
  EXPECT_EQ(stats.pinned, 0u);
  EXPECT_EQ(stats.dirty, 1u);
}

TEST(BufferPoolTest, EvictionPrefersCleanVictimsAndFlushesDirtyOnes) {
  std::string dir = TestDir("bp_evict");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  BufferPoolOptions options;
  options.capacity = 4;
  BufferPool pool(fm->get(), options);

  for (uint32_t id = 0; id < 4; ++id) {
    Result<Page*> page = pool.Fetch(id);
    ASSERT_TRUE(page.ok());
    if (id == 0) {
      ASSERT_TRUE((*page)->Insert("dirty zero").ok());
      pool.MarkDirty(id);
    }
    pool.Unpin(id);
  }
  // Two more fetches evict two of the residents; the clean ones go first.
  for (uint32_t id = 4; id < 6; ++id) {
    Result<Page*> page = pool.Fetch(id);
    ASSERT_TRUE(page.ok());
    pool.Unpin(id);
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.pages, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.dirty_evictions, 0u);

  // Now every resident is dirty: the next eviction must flush its victim.
  for (uint32_t id = 2; id < 6; ++id) {
    if (pool.Pin(id).ok()) {
      pool.MarkDirty(id);
      pool.Unpin(id);
    }
  }
  Result<Page*> page = pool.Fetch(10);
  ASSERT_TRUE(page.ok());
  pool.Unpin(10);
  stats = pool.stats();
  EXPECT_GE(stats.dirty_evictions, 1u);
  EXPECT_GE(stats.flushes, 1u);
}

TEST(BufferPoolTest, PinnedPagesAreNeverEvictedPoolOvercommits) {
  std::string dir = TestDir("bp_pinned");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  BufferPoolOptions options;
  options.capacity = 2;
  BufferPool pool(fm->get(), options);

  Result<Page*> a = pool.Fetch(0);
  Result<Page*> b = pool.Fetch(1);
  Result<Page*> c = pool.Fetch(2);  // all frames pinned -> overcommit
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.pages, 3u);
  EXPECT_GE(stats.overcommits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  pool.Unpin(0);
  pool.Unpin(1);
  pool.Unpin(2);
}

TEST(BufferPoolTest, FlushHonorsTheWalFlushedLsnRule) {
  std::string dir = TestDir("bp_wal_rule");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());

  uint64_t durable = 5;
  std::vector<uint64_t> forced;
  BufferPoolOptions options;
  options.capacity = 8;
  options.flushed_lsn = [&durable] { return durable; };
  options.ensure_flushed = [&durable, &forced](uint64_t lsn) {
    forced.push_back(lsn);
    durable = lsn;  // the WAL syncs up to the requested point
    return OkStatus();
  };
  BufferPool pool(fm->get(), options);

  Result<Page*> page = pool.Fetch(0);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE((*page)->Insert("recent").ok());
  (*page)->set_lsn(9);  // beyond the durable watermark
  pool.MarkDirty(0);
  pool.Unpin(0);

  ASSERT_TRUE(pool.FlushPage(0).ok());
  // The pool had to force the log out to lsn 9 before writing the page.
  ASSERT_EQ(forced.size(), 1u);
  EXPECT_EQ(forced[0], 9u);
  EXPECT_EQ(durable, 9u);

  // A page at or below the watermark flushes without another force.
  Result<Page*> old_page = pool.Fetch(1);
  ASSERT_TRUE(old_page.ok());
  (*old_page)->set_lsn(3);
  pool.MarkDirty(1);
  pool.Unpin(1);
  ASSERT_TRUE(pool.FlushPage(1).ok());
  EXPECT_EQ(forced.size(), 1u);
}

TEST(BufferPoolTest, CreateAndDrop) {
  std::string dir = TestDir("bp_create");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  BufferPool pool(fm->get(), BufferPoolOptions{});
  Result<Page*> page = pool.Create(PageKind::kSlotted);
  ASSERT_TRUE(page.ok());
  uint32_t id = (*page)->page_id();
  EXPECT_EQ(pool.stats().dirty, 1u);
  pool.Drop(id);
  EXPECT_EQ(pool.stats().pages, 0u);
  EXPECT_EQ(pool.stats().dirty, 0u);
}

// ---- PagedHeap ----

TEST(PagedHeapTest, UpsertFetchEraseAndStats) {
  std::string dir = TestDir("heap_basic");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  BufferPool pool(fm->get(), BufferPoolOptions{});
  PagedHeap heap(fm->get(), &pool);

  ASSERT_TRUE(heap.Upsert(1, "first").ok());
  ASSERT_TRUE(heap.Upsert(2, "second").ok());
  ASSERT_TRUE(heap.Upsert(1, "first-rewritten").ok());
  EXPECT_TRUE(heap.Contains(1));
  EXPECT_FALSE(heap.Contains(9));
  EXPECT_EQ(*heap.Fetch(1), "first-rewritten");
  EXPECT_EQ(*heap.Fetch(2), "second");
  ASSERT_TRUE(heap.Erase(2).ok());
  EXPECT_FALSE(heap.Contains(2));
  ASSERT_TRUE(heap.Erase(2).ok());  // idempotent
  PagedHeap::Stats stats = heap.stats();
  EXPECT_EQ(stats.objects, 1u);
  EXPECT_EQ(stats.data_pages, 1u);
  EXPECT_EQ(stats.overflow_pages, 0u);
}

TEST(PagedHeapTest, OverflowChainForOversizedPayloads) {
  std::string dir = TestDir("heap_overflow");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  BufferPool pool(fm->get(), BufferPoolOptions{});
  PagedHeap heap(fm->get(), &pool);

  std::string big(3 * Page::MaxRecordBytes() + 123, 'z');
  for (size_t i = 0; i < big.size(); i += 257) big[i] = char('a' + i % 26);
  ASSERT_TRUE(heap.Upsert(42, big).ok());
  EXPECT_GE(heap.stats().overflow_pages, 4u);
  EXPECT_EQ(*heap.Fetch(42), big);

  // Shrinking back to inline releases the chain for reuse.
  ASSERT_TRUE(heap.Upsert(42, "small again").ok());
  ASSERT_TRUE(heap.CompleteBatch().ok());
  EXPECT_EQ(heap.stats().overflow_pages, 0u);
  EXPECT_EQ(*heap.Fetch(42), "small again");
}

TEST(PagedHeapTest, BatchImagesCompleteAndSurviveReopen) {
  std::string dir = TestDir("heap_reopen");
  std::string big(Page::MaxRecordBytes() * 2, 'q');
  {
    auto fm = FileManager::Open(PagePath(dir), {});
    ASSERT_TRUE(fm.ok());
    BufferPool pool(fm->get(), BufferPoolOptions{});
    PagedHeap heap(fm->get(), &pool);
    ASSERT_TRUE(heap.Upsert(1, "one").ok());
    ASSERT_TRUE(heap.Upsert(2, "two").ok());
    ASSERT_TRUE(heap.Upsert(3, big).ok());
    EXPECT_GT(heap.batch_pages(), 0u);
    std::vector<std::pair<uint32_t, std::string>> images =
        heap.CaptureBatchImages(77);
    EXPECT_EQ(images.size(), heap.batch_pages());
    for (const auto& [id, bytes] : images) {
      Result<Page> parsed = Page::Parse(id, bytes);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(parsed->lsn(), 77u);
    }
    ASSERT_TRUE(heap.CompleteBatch().ok());
    EXPECT_EQ(heap.batch_pages(), 0u);
  }
  // A fresh heap over the same file sees everything via the startup scan.
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  BufferPool pool(fm->get(), BufferPoolOptions{});
  PagedHeap heap(fm->get(), &pool);
  std::map<uint64_t, std::string> loaded;
  ASSERT_TRUE(heap.LoadAll([&loaded](uint64_t id, const std::string& payload) {
                    loaded[id] = payload;
                    return OkStatus();
                  })
                  .ok());
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[1], "one");
  EXPECT_EQ(loaded[2], "two");
  EXPECT_EQ(loaded[3], big);
  EXPECT_EQ(*heap.Fetch(3), big);
}

TEST(PagedHeapTest, FailedBatchKeepsPagesPinnedForRetry) {
  std::string dir = TestDir("heap_retry");
  // The first physical write fails cleanly.
  ScopedFault fault("storage.page.write error --times=1");
  auto fm = FileManager::Open(PagePath(dir), {});
  ASSERT_TRUE(fm.ok());
  BufferPool pool(fm->get(), BufferPoolOptions{});
  PagedHeap heap(fm->get(), &pool);
  ASSERT_TRUE(heap.Upsert(1, "retry me").ok());
  EXPECT_FALSE(heap.CompleteBatch().ok());
  // The batch stays pinned and dirty; a later attempt (after the injected
  // error burned off) succeeds and the data is durable.
  EXPECT_GT(heap.batch_pages(), 0u);
  ASSERT_TRUE(heap.CompleteBatch().ok());
  EXPECT_EQ(heap.batch_pages(), 0u);
  EXPECT_EQ(*heap.Fetch(1), "retry me");
}

}  // namespace
}  // namespace storage
}  // namespace caddb
