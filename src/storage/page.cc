#include "storage/page.h"

#include <algorithm>
#include <cstring>

#include "util/bytes.h"
#include "wal/crc32c.h"

namespace caddb {
namespace storage {

using bytes::LoadU16;
using bytes::LoadU32;
using bytes::LoadU64;
using bytes::StoreU16;
using bytes::StoreU32;
using bytes::StoreU64;

bool Page::IsAllZero(const std::string& bytes) {
  for (char c : bytes) {
    if (c != 0) return false;
  }
  return true;
}

Result<Page::RawHeader> Page::PeekHeader(const std::string& bytes) {
  if (bytes.size() != kPageSize) {
    return InternalError("page image of " + std::to_string(bytes.size()) +
                         " bytes, want " + std::to_string(kPageSize));
  }
  RawHeader header;
  header.crc_ok = wal::Crc32cUnmask(LoadU32(bytes.data())) ==
                  wal::Crc32c(bytes.data() + 4, kPageSize - 4);
  header.stored_id = LoadU32(bytes.data() + 4);
  header.lsn = LoadU64(bytes.data() + 8);
  header.kind_raw = LoadU16(bytes.data() + 16);
  header.slot_count = LoadU16(bytes.data() + 18);
  return header;
}

Result<std::vector<std::pair<uint16_t, uint16_t>>> Page::RawSlotDirectory(
    const std::string& bytes) {
  if (bytes.size() != kPageSize) {
    return InternalError("page image of " + std::to_string(bytes.size()) +
                         " bytes, want " + std::to_string(kPageSize));
  }
  uint16_t slot_count = LoadU16(bytes.data() + 18);
  size_t dir_bytes = static_cast<size_t>(slot_count) * kSlotEntryBytes;
  if (kPageHeaderBytes + dir_bytes > kPageSize) {
    return InternalError("slot directory of " + std::to_string(slot_count) +
                         " entries overruns the page");
  }
  std::vector<std::pair<uint16_t, uint16_t>> out;
  out.reserve(slot_count);
  const char* dir = bytes.data() + kPageSize - dir_bytes;
  for (uint16_t i = 0; i < slot_count; ++i) {
    const char* entry = dir + static_cast<size_t>(i) * kSlotEntryBytes;
    out.emplace_back(LoadU16(entry), LoadU16(entry + 2));
  }
  return out;
}

Result<Page> Page::Parse(uint32_t page_id, const std::string& bytes) {
  auto fail = [page_id](const std::string& why) {
    return InternalError("page " + std::to_string(page_id) + ": " + why);
  };
  Result<RawHeader> header = PeekHeader(bytes);
  if (!header.ok()) return fail(header.status().message());
  if (!header->crc_ok) {
    return fail("checksum mismatch (torn write or corruption)");
  }
  if (header->stored_id != page_id) {
    return fail("header claims page id " + std::to_string(header->stored_id));
  }
  if (header->kind_raw > static_cast<uint16_t>(PageKind::kOverflow)) {
    return fail("unknown page kind " + std::to_string(header->kind_raw));
  }
  Result<std::vector<std::pair<uint16_t, uint16_t>>> dir =
      RawSlotDirectory(bytes);
  if (!dir.ok()) return fail(dir.status().message());
  Page page(page_id, static_cast<PageKind>(header->kind_raw));
  page.lsn_ = header->lsn;
  const size_t heap_end = kPageSize - dir->size() * kSlotEntryBytes;
  page.slots_.resize(dir->size());
  for (size_t i = 0; i < dir->size(); ++i) {
    const auto [offset, length] = (*dir)[i];
    if (offset == kDeadSlotOffset) continue;
    if (offset < kPageHeaderBytes ||
        static_cast<size_t>(offset) + length > heap_end) {
      return fail("slot " + std::to_string(i) + " out of bounds");
    }
    page.slots_[i] = bytes.substr(offset, length);
    page.live_bytes_ += length;
    ++page.live_count_;
  }
  return page;
}

std::string Page::Serialize() const {
  std::string out(kPageSize, '\0');
  StoreU32(&out[4], page_id_);
  StoreU64(&out[8], lsn_);
  StoreU16(&out[16], static_cast<uint16_t>(kind_));
  StoreU16(&out[18], static_cast<uint16_t>(slots_.size()));
  size_t dir_bytes = slots_.size() * kSlotEntryBytes;
  char* dir = &out[kPageSize - dir_bytes];
  size_t heap = kPageHeaderBytes;
  for (size_t i = 0; i < slots_.size(); ++i) {
    char* entry = dir + i * kSlotEntryBytes;
    if (!slots_[i].has_value()) {
      StoreU16(entry, kDeadSlotOffset);
      StoreU16(entry + 2, 0);
      continue;
    }
    const std::string& record = *slots_[i];
    std::memcpy(&out[heap], record.data(), record.size());
    StoreU16(entry, static_cast<uint16_t>(heap));
    StoreU16(entry + 2, static_cast<uint16_t>(record.size()));
    heap += record.size();
  }
  StoreU32(&out[0],
           wal::Crc32cMask(wal::Crc32c(out.data() + 4, kPageSize - 4)));
  return out;
}

size_t Page::UsedBytes() const {
  return kPageHeaderBytes + live_bytes_ + slots_.size() * kSlotEntryBytes;
}

size_t Page::FreeBytes() const {
  size_t used = UsedBytes();
  if (used >= kPageSize) return 0;
  size_t spare = kPageSize - used;
  // A record in a brand-new slot also costs a directory entry; only charge
  // it when no dead slot is available for reuse.
  bool has_dead = live_count_ < slots_.size();
  if (!has_dead) {
    if (spare < kSlotEntryBytes) return 0;
    spare -= kSlotEntryBytes;
  }
  return spare;
}

bool Page::Fits(size_t record_bytes) const {
  return record_bytes <= FreeBytes();
}

Result<uint16_t> Page::Insert(const std::string& record) {
  if (!Fits(record.size())) {
    return FailedPrecondition("page " + std::to_string(page_id_) +
                              ": record of " + std::to_string(record.size()) +
                              " bytes does not fit");
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].has_value()) {
      slots_[i] = record;
      live_bytes_ += record.size();
      ++live_count_;
      return static_cast<uint16_t>(i);
    }
  }
  slots_.push_back(record);
  live_bytes_ += record.size();
  ++live_count_;
  return static_cast<uint16_t>(slots_.size() - 1);
}

Status Page::Update(uint16_t slot, const std::string& record) {
  if (slot >= slots_.size() || !slots_[slot].has_value()) {
    return NotFound("page " + std::to_string(page_id_) + ": no record at slot " +
                    std::to_string(slot));
  }
  size_t old_size = slots_[slot]->size();
  if (record.size() > old_size &&
      record.size() - old_size > kPageSize - UsedBytes()) {
    return FailedPrecondition("page " + std::to_string(page_id_) +
                              ": updated record does not fit");
  }
  live_bytes_ += record.size() - old_size;
  slots_[slot] = record;
  return OkStatus();
}

Status Page::Erase(uint16_t slot) {
  if (slot >= slots_.size() || !slots_[slot].has_value()) {
    return NotFound("page " + std::to_string(page_id_) + ": no record at slot " +
                    std::to_string(slot));
  }
  live_bytes_ -= slots_[slot]->size();
  --live_count_;
  slots_[slot].reset();
  // Trim trailing dead slots so a page emptied and refilled does not keep
  // paying directory entries forever.
  while (!slots_.empty() && !slots_.back().has_value()) slots_.pop_back();
  return OkStatus();
}

Result<const std::string*> Page::Read(uint16_t slot) const {
  if (slot >= slots_.size() || !slots_[slot].has_value()) {
    return NotFound("page " + std::to_string(page_id_) + ": no record at slot " +
                    std::to_string(slot));
  }
  return &*slots_[slot];
}

std::vector<uint16_t> Page::LiveSlots() const {
  std::vector<uint16_t> out;
  out.reserve(live_count_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].has_value()) out.push_back(static_cast<uint16_t>(i));
  }
  return out;
}

}  // namespace storage
}  // namespace caddb
