#ifndef CADDB_STORAGE_PAGE_H_
#define CADDB_STORAGE_PAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace caddb {
namespace storage {

/// Fixed page size of the object store's page file. 8 KiB keeps a typical
/// gate-library object (around a hundred to a few hundred bytes of binary
/// payload, store/object_codec.h) at tens of records per page while
/// bounding the cost of a single dirty-page image inside a checkpoint.
inline constexpr uint32_t kPageSize = 8192;

/// On-disk page header, little-endian:
///
///   u32  masked CRC32C over bytes [4, kPageSize)
///   u32  page id (must match the page's position in the file)
///   u64  page LSN — the WAL lsn of the checkpoint that last captured this
///        page's image; the buffer pool may not write the page to disk
///        until the WAL is durable up to this lsn
///   u16  page kind (PageKind)
///   u16  slot count
///   u32  reserved (zero)
inline constexpr uint32_t kPageHeaderBytes = 24;

/// Per-slot directory entry appended at the page tail: u16 offset + u16
/// length. Offset 0xFFFF marks a dead (erasable, reusable) slot.
inline constexpr uint32_t kSlotEntryBytes = 4;
inline constexpr uint16_t kDeadSlotOffset = 0xFFFF;

enum class PageKind : uint16_t {
  kFree = 0,      // unallocated / returned to the freelist
  kSlotted = 1,   // slot-directory page of inline object records
  kOverflow = 2,  // one chunk of an object too large for a slotted page
};

/// One 8 KiB slotted page, held in memory as a logical record list: slot
/// index -> record bytes (nullopt for dead slots). The physical layout —
/// header, packed record heap, slot directory growing down from the tail —
/// is produced on Serialize and parsed on Parse, so in-memory mutation never
/// deals with compaction; every serialize is a fresh pack.
class Page {
 public:
  explicit Page(uint32_t page_id, PageKind kind = PageKind::kSlotted)
      : page_id_(page_id), kind_(kind) {}

  /// Parses `bytes` (exactly kPageSize) read from disk at `page_id`,
  /// validating the checksum and the stored page id.
  static Result<Page> Parse(uint32_t page_id, const std::string& bytes);

  /// Raw header fields as stored, with nothing validated — the offline disk
  /// verifier's view of a page whose checksum may not even match. crc_ok /
  /// id is what Parse would check; callers decide what a mismatch means
  /// (torn in-place write healed by a checkpoint image vs. real corruption).
  struct RawHeader {
    bool crc_ok = false;
    uint32_t stored_id = 0;
    uint64_t lsn = 0;
    uint16_t kind_raw = 0;
    uint16_t slot_count = 0;
  };

  /// Decodes the header of `bytes` (exactly kPageSize, else an error) and
  /// verifies the checksum into RawHeader::crc_ok without failing on it.
  static Result<RawHeader> PeekHeader(const std::string& bytes);

  /// Raw (offset, length) slot-directory entries of `bytes`, dead slots
  /// included as (kDeadSlotOffset, 0), with no bounds validation — the disk
  /// verifier audits overlap and bounds itself, byte-exactly. Fails only
  /// when the directory overruns the page.
  static Result<std::vector<std::pair<uint16_t, uint16_t>>> RawSlotDirectory(
      const std::string& bytes);

  /// True when every byte is zero — a never-written hole in a sparse file,
  /// treated as a free page by the startup scan.
  static bool IsAllZero(const std::string& bytes);

  /// Largest record an empty page can hold inline.
  static constexpr size_t MaxRecordBytes() {
    return kPageSize - kPageHeaderBytes - kSlotEntryBytes;
  }

  /// Serializes to exactly kPageSize bytes with a fresh checksum.
  std::string Serialize() const;

  uint32_t page_id() const { return page_id_; }
  PageKind kind() const { return kind_; }
  void set_kind(PageKind kind) { kind_ = kind; }
  uint64_t lsn() const { return lsn_; }
  void set_lsn(uint64_t lsn) { lsn_ = lsn; }

  /// True when `record` fits without evicting anything.
  bool Fits(size_t record_bytes) const;

  /// Stores `record` in the first dead slot (or a new one). Fails with
  /// kFailedPrecondition when the page is full.
  Result<uint16_t> Insert(const std::string& record);

  /// Replaces the record at `slot`. Fails when the slot is dead/out of range
  /// or the new record does not fit.
  Status Update(uint16_t slot, const std::string& record);

  /// Marks `slot` dead. Its directory entry is reused by later Inserts.
  Status Erase(uint16_t slot);

  /// Borrowed view of the record at `slot`; invalidated by any mutation.
  Result<const std::string*> Read(uint16_t slot) const;

  size_t live_records() const { return live_count_; }
  /// Bytes still available for one more record (including its slot entry).
  size_t FreeBytes() const;
  std::vector<uint16_t> LiveSlots() const;

 private:
  size_t UsedBytes() const;

  uint32_t page_id_;
  PageKind kind_;
  uint64_t lsn_ = 0;
  std::vector<std::optional<std::string>> slots_;
  size_t live_bytes_ = 0;
  size_t live_count_ = 0;
};

}  // namespace storage
}  // namespace caddb

#endif  // CADDB_STORAGE_PAGE_H_
