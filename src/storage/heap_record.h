#ifndef CADDB_STORAGE_HEAP_RECORD_H_
#define CADDB_STORAGE_HEAP_RECORD_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "storage/page.h"
#include "util/bytes.h"

namespace caddb {
namespace storage {
namespace heap_record {

/// Byte format of the records PagedHeap stores in page slots, shared by the
/// heap itself and the offline disk verifier (which re-derives the
/// surrogate -> page/slot directory from raw pages without a heap):
///
///   inline data record:  [u64 LE id][object payload]
///   overflow record:     [u8 head?][u64 LE id][u32 LE next][payload chunk]
///
/// `next` is the page id of the chain's next overflow page, kNoChainPage at
/// the end; `head` marks the chain's first page (exactly one per chain).

/// End-of-chain marker for overflow `next` pointers (page 0 is a valid
/// page, so 0 cannot terminate a chain).
inline constexpr uint32_t kNoChainPage = 0xFFFFFFFF;

inline constexpr size_t kDataHeaderBytes = 8;
inline constexpr size_t kOverflowHeaderBytes = 13;

inline std::string DataRecord(uint64_t id, const std::string& payload) {
  std::string record;
  record.reserve(kDataHeaderBytes + payload.size());
  bytes::AppendU64(&record, id);
  record += payload;
  return record;
}

inline std::string OverflowRecord(bool head, uint64_t id, uint32_t next,
                                  const std::string& chunk) {
  std::string record;
  record.reserve(kOverflowHeaderBytes + chunk.size());
  record.push_back(head ? 1 : 0);
  bytes::AppendU64(&record, id);
  bytes::AppendU32(&record, next);
  record += chunk;
  return record;
}

/// Parsed view of an overflow record (valid only while the record bytes
/// live).
struct OverflowView {
  bool head = false;
  uint64_t id = 0;
  uint32_t next = kNoChainPage;
};

/// Decodes the overflow header; false when the record is too short.
inline bool ParseOverflow(const std::string& record, OverflowView* out) {
  if (record.size() < kOverflowHeaderBytes) return false;
  out->head = record[0] != 0;
  out->id = bytes::LoadU64(record.data() + 1);
  out->next = bytes::LoadU32(record.data() + 9);
  return true;
}

/// Payload bytes one overflow page can carry.
inline size_t OverflowChunkBytes() {
  return Page::MaxRecordBytes() - kOverflowHeaderBytes;
}

}  // namespace heap_record
}  // namespace storage
}  // namespace caddb

#endif  // CADDB_STORAGE_HEAP_RECORD_H_
