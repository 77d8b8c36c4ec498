#include "storage/paged_heap.h"

#include <algorithm>

#include "storage/heap_record.h"

namespace caddb {
namespace storage {

// The record byte format lives in heap_record.h, shared with the offline
// disk verifier (analysis/disk_verifier.cc) which re-derives this heap's
// directory from raw pages.
using bytes::LoadU64;
using heap_record::DataRecord;
using heap_record::kDataHeaderBytes;
using heap_record::kOverflowHeaderBytes;
using heap_record::OverflowChunkBytes;
using heap_record::OverflowRecord;
using heap_record::OverflowView;
using heap_record::ParseOverflow;

namespace {

constexpr uint32_t kNoPage = heap_record::kNoChainPage;

}  // namespace

Status PagedHeap::LoadAll(
    const std::function<Status(uint64_t id, const std::string& payload)>& fn) {
  struct OvRec : OverflowView {
    std::string chunk;
  };
  std::map<uint32_t, OvRec> overflow;
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t count = files_->page_count();
  std::vector<std::pair<uint64_t, std::string>> inline_payloads;
  for (uint32_t id = 0; id < count; ++id) {
    CADDB_ASSIGN_OR_RETURN(std::string bytes, files_->ReadPage(id));
    if (Page::IsAllZero(bytes)) {
      files_->FreePage(id);
      continue;
    }
    CADDB_ASSIGN_OR_RETURN(Page page, Page::Parse(id, bytes));
    if (page.kind() == PageKind::kFree) {
      files_->FreePage(id);
      continue;
    }
    if (page.kind() == PageKind::kSlotted) {
      for (uint16_t slot : page.LiveSlots()) {
        CADDB_ASSIGN_OR_RETURN(const std::string* record, page.Read(slot));
        if (record->size() < kDataHeaderBytes) {
          return InternalError("page " + std::to_string(id) + " slot " +
                               std::to_string(slot) + ": short record");
        }
        uint64_t object = LoadU64(record->data());
        if (dir_.count(object)) {
          return InternalError("page " + std::to_string(id) +
                               ": duplicate record for object " +
                               std::to_string(object));
        }
        dir_[object] = Loc{id, slot};
        inline_payloads.emplace_back(object,
                                     record->substr(kDataHeaderBytes));
      }
      page_free_[id] = page.FreeBytes();
      continue;
    }
    // Overflow page: exactly one record.
    std::vector<uint16_t> slots = page.LiveSlots();
    if (slots.size() != 1) {
      return InternalError("overflow page " + std::to_string(id) + " holds " +
                           std::to_string(slots.size()) + " records");
    }
    CADDB_ASSIGN_OR_RETURN(const std::string* record, page.Read(slots[0]));
    OvRec rec;
    if (!ParseOverflow(*record, &rec)) {
      return InternalError("overflow page " + std::to_string(id) +
                           ": short record");
    }
    rec.chunk = record->substr(kOverflowHeaderBytes);
    overflow[id] = std::move(rec);
  }
  // Stitch overflow chains from their heads.
  std::set<uint32_t> visited;
  for (const auto& [page_id, rec] : overflow) {
    if (!rec.head) continue;
    if (dir_.count(rec.id)) {
      return InternalError("overflow page " + std::to_string(page_id) +
                           ": duplicate record for object " +
                           std::to_string(rec.id));
    }
    std::string payload = rec.chunk;
    visited.insert(page_id);
    overflow_pages_.insert(page_id);
    uint32_t next = rec.next;
    while (next != kNoPage) {
      auto it = overflow.find(next);
      if (it == overflow.end() || it->second.head ||
          it->second.id != rec.id || visited.count(next)) {
        return InternalError("overflow chain for object " +
                             std::to_string(rec.id) + " is broken at page " +
                             std::to_string(next));
      }
      payload += it->second.chunk;
      visited.insert(next);
      overflow_pages_.insert(next);
      next = it->second.next;
    }
    dir_[rec.id] = Loc{page_id, kOverflowSlot};
    CADDB_RETURN_IF_ERROR(fn(rec.id, payload));
  }
  for (const auto& [page_id, rec] : overflow) {
    if (!visited.count(page_id)) {
      return InternalError("overflow page " + std::to_string(page_id) +
                           " is not reachable from any chain head");
    }
  }
  for (auto& [object, payload] : inline_payloads) {
    CADDB_RETURN_IF_ERROR(fn(object, payload));
  }
  return OkStatus();
}

bool PagedHeap::Contains(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_.count(id) > 0;
}

Result<std::string> PagedHeap::Fetch(uint64_t id) const {
  Loc loc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = dir_.find(id);
    if (it == dir_.end()) {
      return NotFound("object " + std::to_string(id) + " is not on any page");
    }
    loc = it->second;
  }
  if (loc.slot != kOverflowSlot) {
    CADDB_ASSIGN_OR_RETURN(Page * page, pool_->Fetch(loc.page_id));
    Result<const std::string*> record = page->Read(loc.slot);
    if (!record.ok()) {
      pool_->Unpin(loc.page_id);
      return record.status();
    }
    if ((*record)->size() < kDataHeaderBytes ||
        LoadU64((*record)->data()) != id) {
      pool_->Unpin(loc.page_id);
      return InternalError("page " + std::to_string(loc.page_id) +
                           ": directory/record mismatch for object " +
                           std::to_string(id));
    }
    std::string payload = (*record)->substr(kDataHeaderBytes);
    pool_->Unpin(loc.page_id);
    return payload;
  }
  // Overflow chain walk.
  std::string payload;
  uint32_t next = loc.page_id;
  bool first = true;
  while (next != kNoPage) {
    uint32_t current = next;
    CADDB_ASSIGN_OR_RETURN(Page * page, pool_->Fetch(current));
    std::vector<uint16_t> slots = page->LiveSlots();
    Status bad;
    if (slots.size() != 1) {
      bad = InternalError("overflow page " + std::to_string(current) +
                          " holds " + std::to_string(slots.size()) +
                          " records");
    } else {
      Result<const std::string*> record = page->Read(slots[0]);
      if (!record.ok()) {
        bad = record.status();
      } else if (OverflowView view; !ParseOverflow(**record, &view) ||
                                    view.id != id || view.head != first) {
        bad = InternalError("overflow chain for object " + std::to_string(id) +
                            " is broken at page " + std::to_string(current));
      } else {
        payload += (*record)->substr(kOverflowHeaderBytes);
        next = view.next;
      }
    }
    pool_->Unpin(current);
    if (!bad.ok()) return bad;
    first = false;
  }
  return payload;
}

Result<Page*> PagedHeap::BatchPageLocked(uint32_t page_id) {
  CADDB_ASSIGN_OR_RETURN(Page * page, pool_->Fetch(page_id));
  if (batch_.count(page_id)) {
    // Already holding the batch pin; release the fetch pin.
    pool_->Unpin(page_id);
  } else {
    batch_.insert(page_id);  // the fetch pin becomes the batch pin
  }
  pool_->MarkDirty(page_id);
  return page;
}

Result<Page*> PagedHeap::BatchCreateLocked(PageKind kind) {
  CADDB_ASSIGN_OR_RETURN(Page * page, pool_->Create(kind));
  batch_.insert(page->page_id());
  return page;
}

Status PagedHeap::InsertLocked(uint64_t id, const std::string& payload) {
  std::string record = DataRecord(id, payload);
  if (record.size() <= Page::MaxRecordBytes()) {
    for (auto& [page_id, free] : page_free_) {
      if (free < record.size()) continue;
      CADDB_ASSIGN_OR_RETURN(Page * page, BatchPageLocked(page_id));
      if (!page->Fits(record.size())) {
        free = page->FreeBytes();
        continue;
      }
      CADDB_ASSIGN_OR_RETURN(uint16_t slot, page->Insert(record));
      free = page->FreeBytes();
      dir_[id] = Loc{page_id, slot};
      return OkStatus();
    }
    CADDB_ASSIGN_OR_RETURN(Page * page, BatchCreateLocked(PageKind::kSlotted));
    CADDB_ASSIGN_OR_RETURN(uint16_t slot, page->Insert(record));
    page_free_[page->page_id()] = page->FreeBytes();
    dir_[id] = Loc{page->page_id(), slot};
    return OkStatus();
  }
  // Overflow: chunk the payload across a chain of dedicated pages.
  size_t chunk_bytes = OverflowChunkBytes();
  std::vector<Page*> chain;
  size_t chunks = (payload.size() + chunk_bytes - 1) / chunk_bytes;
  if (chunks == 0) chunks = 1;
  for (size_t i = 0; i < chunks; ++i) {
    CADDB_ASSIGN_OR_RETURN(Page * page,
                           BatchCreateLocked(PageKind::kOverflow));
    chain.push_back(page);
  }
  for (size_t i = 0; i < chunks; ++i) {
    uint32_t next = i + 1 < chunks ? chain[i + 1]->page_id() : kNoPage;
    std::string chunk = payload.substr(i * chunk_bytes,
                                       std::min(chunk_bytes,
                                                payload.size() -
                                                    i * chunk_bytes));
    CADDB_ASSIGN_OR_RETURN(
        uint16_t slot,
        chain[i]->Insert(OverflowRecord(i == 0, id, next, chunk)));
    (void)slot;
    overflow_pages_.insert(chain[i]->page_id());
  }
  dir_[id] = Loc{chain[0]->page_id(), kOverflowSlot};
  return OkStatus();
}

Status PagedHeap::EraseLocked(uint64_t id) {
  auto it = dir_.find(id);
  if (it == dir_.end()) return OkStatus();  // never checkpointed: nothing here
  Loc loc = it->second;
  dir_.erase(it);
  if (loc.slot != kOverflowSlot) {
    CADDB_ASSIGN_OR_RETURN(Page * page, BatchPageLocked(loc.page_id));
    CADDB_RETURN_IF_ERROR(page->Erase(loc.slot));
    if (page->live_records() == 0) {
      page->set_kind(PageKind::kFree);
      page_free_.erase(loc.page_id);
    } else {
      page_free_[loc.page_id] = page->FreeBytes();
    }
    return OkStatus();
  }
  uint32_t next = loc.page_id;
  while (next != kNoPage) {
    uint32_t current = next;
    CADDB_ASSIGN_OR_RETURN(Page * page, BatchPageLocked(current));
    std::vector<uint16_t> slots = page->LiveSlots();
    if (slots.size() != 1) {
      return InternalError("overflow page " + std::to_string(current) +
                           " holds " + std::to_string(slots.size()) +
                           " records");
    }
    CADDB_ASSIGN_OR_RETURN(const std::string* record, page->Read(slots[0]));
    OverflowView view;
    if (!ParseOverflow(*record, &view) || view.id != id) {
      return InternalError("overflow chain for object " + std::to_string(id) +
                           " is broken at page " + std::to_string(current));
    }
    next = view.next;
    CADDB_RETURN_IF_ERROR(page->Erase(slots[0]));
    page->set_kind(PageKind::kFree);
    overflow_pages_.erase(current);
  }
  return OkStatus();
}

Status PagedHeap::Upsert(uint64_t id, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dir_.find(id);
  if (it != dir_.end() && it->second.slot != kOverflowSlot) {
    std::string record = DataRecord(id, payload);
    if (record.size() <= Page::MaxRecordBytes()) {
      // Try updating in place before falling back to erase + reinsert.
      Loc loc = it->second;
      CADDB_ASSIGN_OR_RETURN(Page * page, BatchPageLocked(loc.page_id));
      Status updated = page->Update(loc.slot, record);
      if (updated.ok()) {
        page_free_[loc.page_id] = page->FreeBytes();
        return OkStatus();
      }
      if (updated.code() != Code::kFailedPrecondition) return updated;
    }
  }
  if (it != dir_.end()) CADDB_RETURN_IF_ERROR(EraseLocked(id));
  return InsertLocked(id, payload);
}

Status PagedHeap::Erase(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  return EraseLocked(id);
}

std::vector<std::pair<uint32_t, std::string>> PagedHeap::CaptureBatchImages(
    uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint32_t, std::string>> images;
  images.reserve(batch_.size());
  for (uint32_t page_id : batch_) {
    Result<Page*> page = pool_->Fetch(page_id);
    if (!page.ok()) continue;  // batch pages are resident and pinned
    (*page)->set_lsn(lsn);
    pool_->MarkDirty(page_id);
    images.emplace_back(page_id, (*page)->Serialize());
    pool_->Unpin(page_id);
  }
  return images;
}

Status PagedHeap::CompleteBatch() {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t page_id : batch_) {
    PageKind kind = PageKind::kSlotted;
    {
      Result<Page*> page = pool_->Fetch(page_id);
      if (page.ok()) {
        kind = (*page)->kind();
        pool_->Unpin(page_id);
      }
    }
    CADDB_RETURN_IF_ERROR(pool_->FlushPage(page_id));
    if (kind == PageKind::kFree) {
      pool_->Drop(page_id);  // drops the batch pin along with the frame
      files_->FreePage(page_id);
    } else {
      pool_->Unpin(page_id);  // release the batch pin
    }
  }
  CADDB_RETURN_IF_ERROR(files_->Sync());
  batch_.clear();
  return OkStatus();
}

size_t PagedHeap::batch_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_.size();
}

PagedHeap::Stats PagedHeap::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.objects = dir_.size();
  out.data_pages = page_free_.size();
  out.overflow_pages = overflow_pages_.size();
  return out;
}

std::map<uint64_t, std::pair<uint32_t, uint16_t>> PagedHeap::DirectorySnapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, std::pair<uint32_t, uint16_t>> out;
  for (const auto& [id, loc] : dir_) {
    out.emplace(id, std::make_pair(loc.page_id, loc.slot));
  }
  return out;
}

}  // namespace storage
}  // namespace caddb
