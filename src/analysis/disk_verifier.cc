#include "analysis/disk_verifier.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>

#include "replication/manifest.h"
#include "storage/file_manager.h"
#include "storage/heap_record.h"
#include "storage/page.h"
#include "storage/paged_heap.h"
#include "wal/checkpoint.h"
#include "wal/crc32c.h"
#include "wal/log_io.h"
#include "wal/record.h"
#include "wal/wal.h"

namespace caddb {
namespace analysis {

namespace fs = std::filesystem;

namespace {

constexpr char kQuarantineFileName[] = "QUARANTINE";

/// A RepairAction plus what applying it actually takes. Guards are
/// evaluated while planning; destructive applications re-check them
/// against the file's current bytes first.
struct PlannedFix {
  enum class Op { kTruncateWalTail, kTruncatePageTail, kZeroPage, kRemoveTmp };
  RepairAction action;
  Op op;
  std::string path;
  uint64_t truncate_to = 0;  // kTruncateWalTail / kTruncatePageTail
  uint32_t page_id = 0;      // kZeroPage
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Everything one verification pass derives, shared across the passes so
/// the cross-artifact invariants can see all single-artifact results.
struct VerifyPass {
  std::string dir;
  DiagnosticBag bag;
  std::vector<PlannedFix> fixes;

  uint64_t pages_scanned = 0;
  uint64_t segments_scanned = 0;
  uint64_t checkpoints_scanned = 0;
  bool manifest_present = false;

  /// Newest checkpoint that parses and CRC-verifies; lsn 0 / empty path
  /// when the directory has none (same convention as ReadNewestCheckpoint).
  wal::LoadedCheckpoint newest;
  /// Newest lsn the checkpoint lets the scan skip (recovery's replay_floor).
  uint64_t replay_floor = 0;
  /// max(newest checkpoint lsn, last valid WAL frame lsn): no durable page
  /// may claim an lsn beyond this.
  uint64_t durable_horizon = 0;

  std::map<uint64_t, std::pair<uint32_t, uint16_t>> directory;
};

void Report(VerifyPass* pass, const char* code, Severity severity,
            std::string message, std::string entity) {
  pass->bag.Add(code, severity, std::move(message), SourceLoc{},
                std::move(entity));
}

// ---- Pass A: checkpoint files ----

void AuditCheckpoints(VerifyPass* pass) {
  std::vector<wal::CheckpointFileInfo> infos = wal::ListCheckpoints(pass->dir);
  for (const wal::CheckpointFileInfo& info : infos) {
    ++pass->checkpoints_scanned;
    const std::string name = fs::path(info.path).filename().string();
    Result<wal::LoadedCheckpoint> loaded = wal::ReadCheckpointFile(info);
    if (!loaded.ok()) {
      // AtomicWriteFile makes checkpoint publication all-or-nothing, so a
      // damaged file is bit rot, a partial copy or a retired format version,
      // never crash debris — and recovery will skip it, falling back to an
      // older snapshot or refusing to open.
      Report(pass, "CAD315", Severity::kError, loaded.status().message(),
             name);
      continue;
    }
    if (loaded->replay_from > loaded->lsn) {
      Report(pass, "CAD316", Severity::kError,
             "replay floor " + std::to_string(loaded->replay_from) +
                 " lies past the cover lsn " + std::to_string(loaded->lsn),
             name);
    }
    for (const auto& [page_id, image] : loaded->pages) {
      std::string where = name + " image of page " + std::to_string(page_id);
      if (image.size() != storage::kPageSize) {
        Report(pass, "CAD317", Severity::kError,
               "page image is " + std::to_string(image.size()) +
                   " bytes, want " + std::to_string(storage::kPageSize),
               where);
        continue;
      }
      Result<storage::Page::RawHeader> header =
          storage::Page::PeekHeader(image);
      if (storage::Page::IsAllZero(image)) continue;  // freed-page image
      if (!header->crc_ok) {
        Report(pass, "CAD317", Severity::kError,
               "page image fails its checksum", where);
      } else if (header->stored_id != page_id) {
        Report(pass, "CAD317", Severity::kError,
               "page image claims page id " +
                   std::to_string(header->stored_id),
               where);
      } else if (header->lsn > loaded->lsn) {
        Report(pass, "CAD317", Severity::kError,
               "page image lsn " + std::to_string(header->lsn) +
                   " is beyond the checkpoint's cover lsn " +
                   std::to_string(loaded->lsn),
               where);
      }
    }
    pass->newest = std::move(*loaded);  // ascending order: last ok wins
  }
  pass->replay_floor = pass->newest.replay_floor();
}

// ---- Pass B: WAL segment chain ----

void AuditWal(VerifyPass* pass) {
  struct LoadedSegment {
    wal::SegmentFileInfo info;
    std::string name;
    std::string data;
    wal::SegmentContents contents;
  };
  std::vector<LoadedSegment> segments;
  for (const wal::SegmentFileInfo& info : wal::ListSegments(pass->dir)) {
    Result<std::string> data = wal::ReadFileToString(info.path);
    const std::string name = fs::path(info.path).filename().string();
    if (!data.ok()) {
      Report(pass, "CAD311", Severity::kError, data.status().message(), name);
      continue;
    }
    LoadedSegment seg;
    seg.info = info;
    seg.name = name;
    seg.data = std::move(*data);
    seg.contents = wal::DecodeFrames(seg.data);
    segments.push_back(std::move(seg));
    ++pass->segments_scanned;
  }

  // Torn-tail classification. Recovery trusts the chain up to the first
  // torn segment, provided everything after it is an empty
  // crashed-rotation artifact; anything else strands committed records.
  size_t scan_limit = segments.size();
  for (size_t i = 0; i < segments.size(); ++i) {
    const LoadedSegment& seg = segments[i];
    if (seg.contents.tail_error.empty()) continue;
    bool later_records = false;
    for (size_t j = i + 1; j < segments.size(); ++j) {
      if (!segments[j].contents.frames.empty()) later_records = true;
    }
    bool stranded =
        wal::HasValidFrameAfter(seg.data, seg.contents.bytes_scanned);
    if (later_records || stranded) {
      Report(pass, "CAD311", Severity::kError,
             seg.contents.tail_error +
                 (later_records ? "; later segments still hold records"
                                : "; decodable frames survive past the "
                                  "damage") +
                 " — committed data is stranded",
             seg.name);
    } else {
      // The guarded repair: nothing decodable exists past the valid
      // prefix, so truncating to it is exactly what recovery's trust
      // boundary already does.
      Report(pass, "CAD312", Severity::kWarning,
             seg.contents.tail_error + "; valid prefix is " +
                 std::to_string(seg.contents.bytes_scanned) + " of " +
                 std::to_string(seg.data.size()) + " bytes",
             seg.name);
      PlannedFix fix;
      fix.op = PlannedFix::Op::kTruncateWalTail;
      fix.path = seg.info.path;
      fix.truncate_to = seg.contents.bytes_scanned;
      fix.action.kind = "fix-wal-tail";
      fix.action.code = "CAD312";
      fix.action.description = "truncate " + seg.name + " to its " +
                               std::to_string(seg.contents.bytes_scanned) +
                               "-byte valid frame prefix";
      pass->fixes.push_back(std::move(fix));
    }
    scan_limit = i + 1;
    break;
  }

  // Seam continuity across the trusted prefix of the chain: a non-final
  // segment must end exactly one lsn before its successor starts (an
  // empty segment "ends" at start - 1).
  for (size_t i = 0; i + 1 < scan_limit; ++i) {
    const LoadedSegment& seg = segments[i];
    uint64_t end_lsn = seg.contents.frames.empty()
                           ? seg.info.start_lsn - 1
                           : seg.contents.frames.back().lsn;
    if (end_lsn + 1 != segments[i + 1].info.start_lsn) {
      Report(pass, "CAD313", Severity::kError,
             "ends at lsn " + std::to_string(end_lsn) + " but " +
                 segments[i + 1].name + " starts at lsn " +
                 std::to_string(segments[i + 1].info.start_lsn),
             seg.name);
    }
  }

  // In-chain lsn order (strictly increasing, the rule recovery enforces;
  // like recovery, this does not flag a gap inside one segment) and
  // payload decodability past the replay floor.
  uint64_t prev_lsn = 0;
  uint64_t max_lsn = 0;
  for (size_t i = 0; i < scan_limit; ++i) {
    const LoadedSegment& seg = segments[i];
    for (const wal::Frame& frame : seg.contents.frames) {
      if (prev_lsn != 0 && frame.lsn <= prev_lsn) {
        Report(pass, "CAD313", Severity::kError,
               "lsn went backwards (" + std::to_string(frame.lsn) +
                   " after " + std::to_string(prev_lsn) + ")",
               seg.name);
      }
      prev_lsn = frame.lsn;
      max_lsn = std::max(max_lsn, frame.lsn);
      if (frame.lsn > pass->replay_floor) {
        Result<wal::Record> record = wal::Record::Decode(frame.payload);
        if (!record.ok()) {
          // The frame's CRC matched, so this is not a crash artifact:
          // replay will fail loudly on it.
          Report(pass, "CAD314", Severity::kError,
                 "lsn " + std::to_string(frame.lsn) + ": " +
                     record.status().message(),
                 seg.name);
        }
      }
    }
  }

  // Cross-artifact: the records the checkpoint does NOT cover must still
  // be on disk.
  if (!segments.empty() && pass->replay_floor != 0 &&
      segments.front().info.start_lsn > pass->replay_floor + 1) {
    Report(pass, "CAD318", Severity::kError,
           "replay needs lsn " + std::to_string(pass->replay_floor + 1) +
               " (checkpoint lsn " + std::to_string(pass->newest.lsn) +
               ") but the oldest segment starts at lsn " +
               std::to_string(segments.front().info.start_lsn),
           segments.front().name);
  }
  pass->durable_horizon = std::max(pass->newest.lsn, max_lsn);
}

// ---- Pass C: pages.db on the healed view ----

/// First line of an object payload is "obj <surrogate> ..."; the record key
/// must agree with it.
bool PayloadSurrogate(const std::string& payload, uint64_t* id) {
  unsigned long long value = 0;
  if (std::sscanf(payload.c_str(), "obj %llu", &value) != 1) return false;
  *id = value;
  return true;
}

void AuditPages(VerifyPass* pass) {
  namespace hr = storage::heap_record;
  const std::string path =
      (fs::path(pass->dir) / storage::kPageFileName).string();

  storage::FileManagerOptions fm_options;
  fm_options.read_only = true;
  Result<std::unique_ptr<storage::FileManager>> fm_or =
      storage::FileManager::Open(path, fm_options);
  if (!fm_or.ok()) {
    Report(pass, "CAD310", Severity::kError, fm_or.status().message(),
           storage::kPageFileName);
    return;
  }
  storage::FileManager* fm = fm_or->get();
  Result<uint64_t> size_or = fm->FileSizeBytes();
  if (!size_or.ok()) {
    Report(pass, "CAD310", Severity::kError, size_or.status().message(),
           storage::kPageFileName);
    return;
  }
  const uint64_t file_bytes = *size_or;
  if (file_bytes % storage::kPageSize != 0) {
    // A crash mid-append left a partial tail page. It can never parse and
    // a writable open performs the identical trim, so truncation is safe.
    uint64_t keep = file_bytes - (file_bytes % storage::kPageSize);
    Report(pass, "CAD310", Severity::kWarning,
           "file is " + std::to_string(file_bytes) +
               " bytes — not a multiple of the " +
               std::to_string(storage::kPageSize) + "-byte page size",
           storage::kPageFileName);
    PlannedFix fix;
    fix.op = PlannedFix::Op::kTruncatePageTail;
    fix.path = path;
    fix.truncate_to = keep;
    fix.action.kind = "fix-page-tail";
    fix.action.code = "CAD310";
    fix.action.description =
        std::string(storage::kPageFileName) + ": truncate the " +
        std::to_string(file_bytes % storage::kPageSize) +
        "-byte partial tail page";
    pass->fixes.push_back(std::move(fix));
  }
  const uint32_t file_pages =
      static_cast<uint32_t>(file_bytes / storage::kPageSize);

  // The healed view: the newest checkpoint's double-write images take
  // precedence over the file, exactly as a writable open reconstructs it.
  // Images may also extend past EOF (a crash before phase-five in-place
  // writes) — that is normal, not corruption.
  const std::map<uint32_t, std::string>& images = pass->newest.pages;
  uint32_t total_pages = file_pages;
  for (const auto& [id, image] : images) {
    if (image.size() == storage::kPageSize && id >= total_pages) {
      total_pages = id + 1;
    }
  }

  struct OverflowNode {
    bool head = false;
    uint64_t id = 0;
    uint32_t next = hr::kNoChainPage;
  };
  std::map<uint32_t, OverflowNode> overflow;
  std::set<uint32_t> free_pages;

  for (uint32_t id = 0; id < total_pages; ++id) {
    ++pass->pages_scanned;
    const std::string entity =
        std::string(storage::kPageFileName) + " page " + std::to_string(id);
    std::string raw;
    if (id < file_pages) {
      Result<std::string> raw_or = fm->ReadPage(id);
      if (!raw_or.ok()) {
        Report(pass, "CAD301", Severity::kError, raw_or.status().message(),
               entity);
        continue;
      }
      raw = std::move(*raw_or);
    } else {
      raw.assign(storage::kPageSize, '\0');
    }

    auto image_it = images.find(id);
    const bool healed_by_image =
        image_it != images.end() &&
        image_it->second.size() == storage::kPageSize;

    // Raw-layer audit of the file's own bytes. A page the newest
    // checkpoint carries an image of is allowed to be torn — the crash
    // landed mid-phase-five and the image heals it on open.
    if (id < file_pages && !storage::Page::IsAllZero(raw)) {
      Result<storage::Page::RawHeader> header = storage::Page::PeekHeader(raw);
      if (!header->crc_ok) {
        Report(pass, "CAD301",
               healed_by_image ? Severity::kWarning : Severity::kError,
               std::string("page checksum mismatch") +
                   (healed_by_image
                        ? " (torn in-place write; healed from the newest "
                          "checkpoint's image on open)"
                        : " and no checkpoint image covers the page"),
               entity);
        if (!healed_by_image) continue;
      } else if (header->stored_id != id) {
        Report(pass, "CAD302",
               healed_by_image ? Severity::kWarning : Severity::kError,
               "header claims page id " + std::to_string(header->stored_id) +
                   (healed_by_image ? " (healed from the newest checkpoint's "
                                      "image on open)"
                                    : ""),
               entity);
        if (!healed_by_image) continue;
      }
    }

    const std::string& healed = healed_by_image ? image_it->second : raw;
    if (storage::Page::IsAllZero(healed)) {
      free_pages.insert(id);
      continue;
    }
    Result<storage::Page> page = storage::Page::Parse(id, healed);
    if (!page.ok()) {
      if (healed_by_image) continue;  // already reported as CAD317
      Report(pass, "CAD303", Severity::kError, page.status().message(),
             entity);
      continue;
    }
    if (page->lsn() > pass->durable_horizon) {
      Report(pass, "CAD309", Severity::kError,
             "page lsn " + std::to_string(page->lsn()) +
                 " is beyond the durable horizon " +
                 std::to_string(pass->durable_horizon) +
                 " — the log covering it is gone",
             entity);
    }

    // Slot-directory byte audit: Parse bounds each slot, but two live
    // slots may still overlap each other (or the header/record heap of a
    // hand-corrupted page). Verify the packing byte-exactly.
    Result<std::vector<std::pair<uint16_t, uint16_t>>> dir_or =
        storage::Page::RawSlotDirectory(healed);
    std::vector<std::pair<uint16_t, uint16_t>> live_extents;
    if (dir_or.ok()) {
      for (const auto& [offset, length] : *dir_or) {
        if (offset == storage::kDeadSlotOffset) continue;
        live_extents.emplace_back(offset, length);
      }
    }
    std::sort(live_extents.begin(), live_extents.end());
    for (size_t i = 0; i + 1 < live_extents.size(); ++i) {
      if (static_cast<size_t>(live_extents[i].first) +
              live_extents[i].second >
          live_extents[i + 1].first) {
        Report(pass, "CAD303", Severity::kError,
               "live slots overlap at offset " +
                   std::to_string(live_extents[i + 1].first),
               entity);
        break;
      }
    }

    switch (page->kind()) {
      case storage::PageKind::kFree:
        if (page->live_records() > 0) {
          Report(pass, "CAD308", Severity::kError,
                 "free page still holds " +
                     std::to_string(page->live_records()) +
                     " live record(s)",
                 entity);
        } else {
          free_pages.insert(id);
        }
        break;
      case storage::PageKind::kSlotted:
        for (uint16_t slot : page->LiveSlots()) {
          const std::string& record = **page->Read(slot);
          const std::string where = entity + " slot " + std::to_string(slot);
          if (record.size() < hr::kDataHeaderBytes) {
            Report(pass, "CAD304", Severity::kError,
                   "record of " + std::to_string(record.size()) +
                       " bytes is shorter than its header",
                   where);
            continue;
          }
          uint64_t object = hr::GetU64(record.data());
          uint64_t payload_id = 0;
          if (!PayloadSurrogate(record.substr(hr::kDataHeaderBytes),
                                &payload_id)) {
            Report(pass, "CAD304", Severity::kError,
                   "record payload is not an encoded object", where);
          } else if (payload_id != object) {
            Report(pass, "CAD304", Severity::kError,
                   "record is keyed @" + std::to_string(object) +
                       " but its payload encodes @" +
                       std::to_string(payload_id),
                   where);
          }
          auto [it, inserted] =
              pass->directory.emplace(object, std::make_pair(id, slot));
          if (!inserted) {
            Report(pass, "CAD307", Severity::kError,
                   "object @" + std::to_string(object) +
                       " already has a live record on page " +
                       std::to_string(it->second.first) + " slot " +
                       std::to_string(it->second.second),
                   where);
          }
        }
        break;
      case storage::PageKind::kOverflow: {
        std::vector<uint16_t> slots = page->LiveSlots();
        if (slots.size() != 1) {
          Report(pass, "CAD303", Severity::kError,
                 "overflow page holds " + std::to_string(slots.size()) +
                     " records, want exactly 1",
                 entity);
          break;
        }
        const std::string& record = **page->Read(slots[0]);
        hr::OverflowView view;
        if (!hr::ParseOverflow(record, &view)) {
          Report(pass, "CAD304", Severity::kError,
                 "overflow record of " + std::to_string(record.size()) +
                     " bytes is shorter than its header",
                 entity);
          break;
        }
        overflow[id] = OverflowNode{view.head, view.id, view.next};
        break;
      }
    }
  }

  // Overflow chains: walk every head, verifying each hop stays inside the
  // overflow population, keeps the object id, never revisits a page and
  // never re-enters a head.
  std::set<uint32_t> reachable;
  for (const auto& [head_page, node] : overflow) {
    if (!node.head) continue;
    const std::string chain =
        "overflow chain of @" + std::to_string(node.id) + " (head page " +
        std::to_string(head_page) + ")";
    auto [it, inserted] = pass->directory.emplace(
        node.id,
        std::make_pair(head_page, storage::PagedHeap::kOverflowSlotPublic));
    if (!inserted) {
      Report(pass, "CAD307", Severity::kError,
             "object @" + std::to_string(node.id) +
                 " already has a live record on page " +
                 std::to_string(it->second.first),
             chain);
      continue;
    }
    reachable.insert(head_page);
    uint32_t next = node.next;
    std::set<uint32_t> visited{head_page};
    while (next != hr::kNoChainPage) {
      if (visited.count(next) != 0) {
        Report(pass, "CAD305", Severity::kError,
               "chain cycles back to page " + std::to_string(next), chain);
        break;
      }
      if (free_pages.count(next) != 0) {
        Report(pass, "CAD308", Severity::kError,
               "chain links to free page " + std::to_string(next), chain);
        break;
      }
      auto node_it = overflow.find(next);
      if (node_it == overflow.end()) {
        Report(pass, "CAD305", Severity::kError,
               "chain links to page " + std::to_string(next) +
                   ", which is not an overflow page",
               chain);
        break;
      }
      if (node_it->second.head) {
        Report(pass, "CAD305", Severity::kError,
               "chain runs into page " + std::to_string(next) +
                   ", the head of another chain",
               chain);
        break;
      }
      if (node_it->second.id != node.id) {
        Report(pass, "CAD305", Severity::kError,
               "page " + std::to_string(next) + " belongs to @" +
                   std::to_string(node_it->second.id),
               chain);
        break;
      }
      visited.insert(next);
      reachable.insert(next);
      next = node_it->second.next;
    }
  }
  for (const auto& [page_id, node] : overflow) {
    if (node.head || reachable.count(page_id) != 0) continue;
    // LoadAll refuses to open a store around an orphan, so this is an
    // error — but reclamation is provably safe: nothing reaches the page,
    // so zeroing it only returns a hole to the freelist.
    const std::string entity = std::string(storage::kPageFileName) +
                               " page " + std::to_string(page_id);
    Report(pass, "CAD306", Severity::kError,
           "overflow page (claims @" + std::to_string(node.id) +
               ") is unreachable from every chain head — the store "
               "refuses to open around it",
           entity);
    PlannedFix fix;
    fix.op = PlannedFix::Op::kZeroPage;
    fix.path = path;
    fix.page_id = page_id;
    fix.action.kind = "fix-orphan-page";
    fix.action.code = "CAD306";
    fix.action.description = "zero orphaned overflow page " +
                             std::to_string(page_id) +
                             " (reclaim as a freelist hole)";
    pass->fixes.push_back(std::move(fix));
  }
}

// ---- Pass D: MANIFEST / replica artifacts ----

void AuditManifest(VerifyPass* pass) {
  const std::string path =
      (fs::path(pass->dir) / replication::kManifestFileName).string();
  Result<std::string> text = wal::ReadFileToString(path);
  if (!text.ok()) {
    if (text.status().code() == Code::kNotFound) return;  // primary dir
    pass->manifest_present = true;
    Report(pass, "CAD320", Severity::kError, text.status().message(),
           replication::kManifestFileName);
    return;
  }
  pass->manifest_present = true;
  Result<replication::Manifest> manifest =
      replication::Manifest::Decode(*text);
  if (!manifest.ok()) {
    Report(pass, "CAD320", Severity::kError, manifest.status().message(),
           replication::kManifestFileName);
    return;
  }
  Status valid = manifest->Validate();
  if (!valid.ok()) {
    Report(pass, "CAD320", Severity::kError, valid.message(),
           replication::kManifestFileName);
    return;
  }

  // Each named artifact must exist with (at least) the shipped prefix and
  // the prefix must match its CRC. The checkpoint and page file are
  // shipped whole, segments as valid-frame prefixes of the live tail.
  auto check_artifact = [&](const std::string& file, uint64_t bytes,
                            uint32_t crc, bool exact) {
    Result<std::string> content =
        wal::ReadFileToString((fs::path(pass->dir) / file).string());
    if (!content.ok()) {
      Report(pass, "CAD321", Severity::kError, content.status().message(),
             replication::kManifestFileName);
      return;
    }
    if (content->size() < bytes || (exact && content->size() != bytes)) {
      Report(pass, "CAD321", Severity::kError,
             file + " is " + std::to_string(content->size()) +
                 " bytes, manifest shipped " + std::to_string(bytes),
             replication::kManifestFileName);
      return;
    }
    if (wal::Crc32c(content->data(), bytes) != crc) {
      Report(pass, "CAD321", Severity::kError,
             file + ": shipped prefix fails the manifest's crc",
             replication::kManifestFileName);
    }
  };
  check_artifact(manifest->checkpoint.file, manifest->checkpoint.bytes,
                 manifest->checkpoint.crc, /*exact=*/true);
  if (manifest->pagefile.present) {
    check_artifact(manifest->pagefile.file, manifest->pagefile.bytes,
                   manifest->pagefile.crc, /*exact=*/true);
  }
  for (const replication::ManifestSegment& segment : manifest->segments) {
    check_artifact(segment.file, segment.bytes, segment.crc,
                   /*exact=*/false);
  }

  // Cross-artifact: the staged checkpoint the manifest anchors on must
  // agree with the manifest's own lsn and generation.
  wal::CheckpointFileInfo info;
  info.path = (fs::path(pass->dir) / manifest->checkpoint.file).string();
  info.lsn = manifest->checkpoint.lsn;
  Result<wal::LoadedCheckpoint> staged = wal::ReadCheckpointFile(info);
  if (staged.ok()) {
    if (staged->generation != manifest->generation) {
      Report(pass, "CAD319", Severity::kError,
             "manifest claims generation " +
                 std::to_string(manifest->generation) +
                 " but the staged checkpoint was written in generation " +
                 std::to_string(staged->generation),
             replication::kManifestFileName);
    }
    if (manifest->seq == 0) {
      Report(pass, "CAD319", Severity::kError,
             "manifest seq 0 can never be applied (followers ignore "
             "seq <= last applied)",
             replication::kManifestFileName);
    }
  }
  // An unreadable staged checkpoint was already reported by check_artifact
  // / the checkpoint pass (the shipped file shares the directory).
}

// ---- Pass E: quarantine + temp debris ----

void AuditDirectoryDebris(VerifyPass* pass) {
  const fs::path quarantine = fs::path(pass->dir) / kQuarantineFileName;
  std::error_code ec;
  if (fs::exists(quarantine, ec)) {
    Result<std::string> verdict = wal::ReadFileToString(quarantine.string());
    std::string detail = verdict.ok() ? *verdict : std::string();
    size_t eol = detail.find('\n');
    if (eol != std::string::npos) detail.resize(eol);
    Report(pass, "CAD322", Severity::kWarning,
           detail.empty() ? "replica carries a persisted divergence verdict"
                          : detail,
           kQuarantineFileName);
  }

  std::vector<std::string> stale;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(pass->dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      stale.push_back(name);
    }
  }
  std::sort(stale.begin(), stale.end());
  for (const std::string& name : stale) {
    Report(pass, "CAD323", Severity::kWarning,
           "stale temp file — debris of an interrupted atomic publish",
           name);
    PlannedFix fix;
    fix.op = PlannedFix::Op::kRemoveTmp;
    fix.path = (fs::path(pass->dir) / name).string();
    fix.action.kind = "fix-stale-tmp";
    fix.action.code = "CAD323";
    fix.action.description = "remove stale temp file " + name;
    pass->fixes.push_back(std::move(fix));
  }
}

void RunPasses(const std::string& dir, VerifyPass* pass) {
  pass->dir = dir;
  AuditCheckpoints(pass);
  AuditWal(pass);
  AuditPages(pass);
  AuditManifest(pass);
  AuditDirectoryDebris(pass);
  pass->bag.Sort();
}

// ---- Apply ----

Status ApplyFix(PlannedFix* fix) {
  switch (fix->op) {
    case PlannedFix::Op::kTruncateWalTail: {
      // Re-check the guard against the file's current bytes: the valid
      // prefix must still end where the plan said and nothing decodable
      // may live past it.
      CADDB_ASSIGN_OR_RETURN(std::string data,
                             wal::ReadFileToString(fix->path));
      wal::SegmentContents contents = wal::DecodeFrames(data);
      if (contents.tail_error.empty() ||
          contents.bytes_scanned != fix->truncate_to ||
          wal::HasValidFrameAfter(data, contents.bytes_scanned)) {
        return FailedPrecondition(
            "segment changed since planning; refusing to truncate");
      }
      if (::truncate(fix->path.c_str(),
                     static_cast<off_t>(fix->truncate_to)) != 0) {
        return InternalError("truncate '" + fix->path +
                             "': " + std::strerror(errno));
      }
      return OkStatus();
    }
    case PlannedFix::Op::kTruncatePageTail: {
      struct stat st;
      if (::stat(fix->path.c_str(), &st) != 0) {
        return InternalError("stat '" + fix->path +
                             "': " + std::strerror(errno));
      }
      if (static_cast<uint64_t>(st.st_size) % storage::kPageSize == 0 ||
          static_cast<uint64_t>(st.st_size) -
                  (static_cast<uint64_t>(st.st_size) % storage::kPageSize) !=
              fix->truncate_to) {
        return FailedPrecondition(
            "page file changed since planning; refusing to truncate");
      }
      if (::truncate(fix->path.c_str(),
                     static_cast<off_t>(fix->truncate_to)) != 0) {
        return InternalError("truncate '" + fix->path +
                             "': " + std::strerror(errno));
      }
      return OkStatus();
    }
    case PlannedFix::Op::kZeroPage: {
      int fd = ::open(fix->path.c_str(), O_RDWR);
      if (fd < 0) {
        return InternalError("open '" + fix->path +
                             "': " + std::strerror(errno));
      }
      std::string zeros(storage::kPageSize, '\0');
      size_t done = 0;
      while (done < zeros.size()) {
        ssize_t n = ::pwrite(
            fd, zeros.data() + done, zeros.size() - done,
            static_cast<off_t>(fix->page_id) * storage::kPageSize + done);
        if (n < 0) {
          if (errno == EINTR) continue;
          Status s = InternalError("pwrite '" + fix->path +
                                   "': " + std::strerror(errno));
          ::close(fd);
          return s;
        }
        done += static_cast<size_t>(n);
      }
      if (::fsync(fd) != 0) {
        Status s = InternalError("fsync '" + fix->path +
                                 "': " + std::strerror(errno));
        ::close(fd);
        return s;
      }
      ::close(fd);
      return OkStatus();
    }
    case PlannedFix::Op::kRemoveTmp: {
      std::error_code ec;
      fs::remove(fix->path, ec);
      if (ec) {
        return InternalError("remove '" + fix->path + "': " + ec.message());
      }
      return OkStatus();
    }
  }
  return InternalError("unhandled repair kind");
}

}  // namespace

std::string DiskVerifyReport::RenderText() const {
  std::ostringstream out;
  out << "scanned: " << pages_scanned << " page(s), " << segments_scanned
      << " wal segment(s), " << checkpoints_scanned << " checkpoint(s)"
      << (manifest_present ? ", manifest" : "") << "\n";
  if (!diagnostics.empty()) out << diagnostics.RenderText();
  if (!plan.empty()) {
    out << "repair plan:\n";
    for (const RepairAction& action : plan) {
      out << "  [" << (action.applied ? "applied" : "dry-run") << "] "
          << action.kind << " (" << action.code << "): " << action.description
          << "\n";
    }
  }
  if (fix_applied) {
    out << "post-fix: " << post_fix.Summary() << "\n";
  } else {
    out << "result: " << diagnostics.Summary() << "\n";
  }
  return out.str();
}

std::string DiskVerifyReport::RenderJson() const {
  std::ostringstream out;
  out << "{\"pages\":" << pages_scanned
      << ",\"segments\":" << segments_scanned
      << ",\"checkpoints\":" << checkpoints_scanned << ",\"manifest\":"
      << (manifest_present ? "true" : "false")
      << ",\"clean\":" << (Clean() ? "true" : "false")
      << ",\"report\":" << diagnostics.RenderJson() << ",\"plan\":[";
  for (size_t i = 0; i < plan.size(); ++i) {
    if (i != 0) out << ",";
    out << "{\"kind\":\"" << JsonEscape(plan[i].kind) << "\",\"code\":\""
        << JsonEscape(plan[i].code) << "\",\"description\":\""
        << JsonEscape(plan[i].description) << "\",\"applied\":"
        << (plan[i].applied ? "true" : "false") << "}";
  }
  out << "]";
  if (fix_applied) out << ",\"post_fix\":" << post_fix.RenderJson();
  out << "}";
  return out.str();
}

Result<DiskVerifyReport> VerifyDiskArtifacts(const std::string& dir,
                                             const DiskVerifyOptions& options) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return NotFound("'" + dir + "' is not a directory");
  }

  VerifyPass pass;
  RunPasses(dir, &pass);

  DiskVerifyReport report;
  report.diagnostics = std::move(pass.bag);
  report.pages_scanned = pass.pages_scanned;
  report.segments_scanned = pass.segments_scanned;
  report.checkpoints_scanned = pass.checkpoints_scanned;
  report.manifest_present = pass.manifest_present;
  report.directory = std::move(pass.directory);

  bool any_applied = false;
  for (PlannedFix& fix : pass.fixes) {
    if (options.fix) {
      Status applied = ApplyFix(&fix);
      if (applied.ok()) {
        fix.action.applied = true;
        any_applied = true;
      } else {
        report.diagnostics.Add(fix.action.code, Severity::kNote,
                               "repair skipped: " + applied.message(),
                               SourceLoc{}, fix.action.description);
      }
    }
    report.plan.push_back(fix.action);
  }
  if (any_applied) {
    // Re-verify from scratch: the repairs must leave nothing behind (and
    // must not have introduced anything).
    report.fix_applied = true;
    VerifyPass recheck;
    RunPasses(dir, &recheck);
    report.post_fix = std::move(recheck.bag);
  }
  return report;
}

}  // namespace analysis
}  // namespace caddb
