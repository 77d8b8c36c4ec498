#include "replication/shipper.h"

#include <filesystem>
#include <vector>

#include "core/database.h"
#include "fault/failpoint.h"
#include "storage/file_manager.h"
#include "wal/checkpoint.h"
#include "wal/crc32c.h"
#include "wal/log_io.h"

namespace caddb {
namespace replication {

namespace fs = std::filesystem;

Shipper::Shipper(Database* db, std::string replica_dir)
    : db_(db), replica_dir_(std::move(replica_dir)),
      obs_(obs::SharedOrOwned(db != nullptr ? db->observability() : nullptr,
                              &owned_obs_)) {
  m_attempts_ = obs_->metrics.GetCounter(
      "caddb_replication_ship_attempts_total",
      "Shipment attempts (including ones an injected fault swallowed)");
  m_files_ = obs_->metrics.GetCounter(
      "caddb_replication_ship_files_total",
      "Files copied into the replica directory");
  m_bytes_ = obs_->metrics.GetCounter("caddb_replication_ship_bytes_total",
                                      "Bytes copied into the replica "
                                      "directory");
  m_ship_us_ = obs_->metrics.GetHistogram(
      "caddb_replication_ship_us", "One shipment attempt, end to end");
}

Result<ShipmentReport> Shipper::ShipNow() {
  // A fresh Shipper (primary restart) must not restart the manifest seq:
  // a follower that already applied a higher seq would ignore every new
  // shipment as stale. Continue from whatever the replica last saw.
  if (!seq_seeded_) {
    seq_seeded_ = true;
    Result<std::string> existing = wal::ReadFileToString(
        (fs::path(replica_dir_) / kManifestFileName).string());
    if (existing.ok()) {
      Result<Manifest> decoded = Manifest::Decode(*existing);
      if (decoded.ok() && decoded->seq > attempts_) attempts_ = decoded->seq;
    }
  }
  ShipmentReport report;
  ++attempts_;
  obs::Span span(&obs_->trace, "replication.ship", m_ship_us_,
                 /*always_time=*/true);
  m_attempts_->Increment();
  // The per-attempt fault matrix is the `replication.ship` failpoint: a
  // transport action is reported in `report.fault`, kDelay stalls the
  // attempt and then ships, and kError fails it.
  fault::FiredAction shipfault;
  if (fault::Hit(fault::sites::kReplicationShip, &shipfault)) {
    switch (shipfault.kind) {
      case fault::ActionKind::kDrop:
      case fault::ActionKind::kTruncate:
      case fault::ActionKind::kDuplicate:
      case fault::ActionKind::kReorder:
      case fault::ActionKind::kCorrupt:
      case fault::ActionKind::kStall:
        report.fault = shipfault.kind;
        break;
      case fault::ActionKind::kDelay:
        fault::FailpointRegistry::Global().SleepFor(shipfault.delay_us);
        break;
      default:
        return Unavailable("failpoint replication.ship: injected failure" +
                           (shipfault.message.empty()
                                ? std::string()
                                : ": " + shipfault.message));
    }
  }
  if (report.fault == fault::ActionKind::kStall) {
    return report;  // the transport hung; nothing reaches the replica
  }
  if (db_ == nullptr || !db_->durable()) {
    return FailedPrecondition("shipper needs a durably opened primary");
  }
  // fsync the log before reading it, so the shipped bytes are the durable
  // bytes: a follower never learns of records the primary itself could
  // lose in a crash.
  CADDB_RETURN_IF_ERROR(db_->wal()->Sync());
  const std::string& wal_dir = db_->wal()->dir();

  // Assemble the shipment in memory first: the newest checkpoint plus the
  // valid frame prefix of every segment. Reading the live tail mid-append
  // is safe — DecodeFrames stops at the first incomplete frame, and the
  // prefix before it is immutable (the log is append-only).
  Manifest manifest;
  manifest.seq = attempts_;
  manifest.generation = db_->generation();
  // The distributed-trace link: the last commit's context, so a follower's
  // rebuild span joins the tree of the client request that caused it.
  manifest.trace = db_->wal()->last_commit_context();

  struct ShipFile {
    std::string name;
    std::string bytes;
  };
  std::vector<ShipFile> files;
  {
    // A checkpoint rewrites pages.db in place (phase two) and truncates
    // segments; snapshotting the whole shipment under the checkpoint pause
    // keeps the (checkpoint, pagefile, segments) triple mutually
    // consistent. Appends to the live tail continue — DecodeFrames stops
    // at the first incomplete frame, and the prefix before it is
    // immutable (the log is append-only).
    std::unique_lock<std::mutex> pause = db_->PauseCheckpoints();

    std::vector<wal::CheckpointFileInfo> checkpoints =
        wal::ListCheckpoints(wal_dir);
    if (checkpoints.empty()) {
      return FailedPrecondition("primary has no checkpoint to ship");
    }
    const wal::CheckpointFileInfo& newest = checkpoints.back();
    CADDB_ASSIGN_OR_RETURN(std::string checkpoint_bytes,
                           wal::ReadFileToString(newest.path));
    manifest.checkpoint.file = fs::path(newest.path).filename().string();
    manifest.checkpoint.lsn = newest.lsn;
    manifest.checkpoint.bytes = checkpoint_bytes.size();
    manifest.checkpoint.crc =
        wal::Crc32c(checkpoint_bytes.data(), checkpoint_bytes.size());
    files.push_back({manifest.checkpoint.file, std::move(checkpoint_bytes)});

    // The page file carries the object payloads an incremental checkpoint
    // does not: without it the shipped state cannot replay.
    const std::string pagefile_path =
        (fs::path(wal_dir) / storage::kPageFileName).string();
    Result<std::string> page_bytes = wal::ReadFileToString(pagefile_path);
    if (page_bytes.ok()) {
      manifest.pagefile.file = storage::kPageFileName;
      manifest.pagefile.bytes = page_bytes->size();
      manifest.pagefile.crc =
          wal::Crc32c(page_bytes->data(), page_bytes->size());
      manifest.pagefile.present = true;
      files.push_back({manifest.pagefile.file, std::move(*page_bytes)});
    } else if (page_bytes.status().code() != Code::kNotFound) {
      return page_bytes.status();
    }

    const uint64_t live_start = db_->wal()->stats().segment_start_lsn;
    for (const wal::SegmentFileInfo& segment : wal::ListSegments(wal_dir)) {
      CADDB_ASSIGN_OR_RETURN(std::string bytes,
                             wal::ReadFileToString(segment.path));
      wal::SegmentContents contents = wal::DecodeFrames(bytes);
      if (contents.frames.empty()) continue;  // nothing durable to ship yet
      bytes.resize(contents.frames.back().end_offset);
      ManifestSegment seg;
      seg.file = fs::path(segment.path).filename().string();
      seg.start_lsn = segment.start_lsn;
      seg.last_lsn = contents.frames.back().lsn;
      seg.bytes = bytes.size();
      seg.crc = wal::Crc32c(bytes.data(), bytes.size());
      seg.tail = segment.start_lsn == live_start;
      manifest.segments.push_back(seg);
      files.push_back({seg.file, std::move(bytes)});
    }
  }

  report.seq = manifest.seq;
  report.shipped_lsn = manifest.shipped_lsn();
  if (report.fault == fault::ActionKind::kDrop) {
    return report;  // the whole attempt vanished in transit
  }

  std::error_code ec;
  fs::create_directories(replica_dir_, ec);
  if (ec) {
    return InternalError("cannot create replica dir " + replica_dir_ + ": " +
                         ec.message());
  }

  // Copy with self-healing: a replica file already holding the intended
  // bytes is skipped; anything else (missing, torn by a previous kTruncate,
  // flipped by a previous kCorrupt) is atomically replaced.
  const size_t fault_file = files.size() - 1;  // newest data takes the hit
  for (size_t i = 0; i < files.size(); ++i) {
    std::string to_write = files[i].bytes;
    if (report.fault == fault::ActionKind::kTruncate && i == fault_file) {
      to_write.resize(to_write.size() / 2);
    } else if (report.fault == fault::ActionKind::kCorrupt && i == fault_file &&
               !to_write.empty()) {
      to_write[to_write.size() / 2] ^= 0x40;
    }
    const std::string target =
        (fs::path(replica_dir_) / files[i].name).string();
    Result<std::string> existing = wal::ReadFileToString(target);
    if (existing.ok() && *existing == to_write) continue;
    if (existing.ok()) ++report.files_healed;
    CADDB_RETURN_IF_ERROR(wal::AtomicWriteFile(target, to_write));
    ++report.files_copied;
    report.bytes_copied += to_write.size();
  }
  m_files_->Increment(report.files_copied);
  m_bytes_->Increment(report.bytes_copied);
  span.AddAttribute("seq", report.seq);
  span.AddAttribute("shipped_lsn", report.shipped_lsn);
  CADDB_LOG(&obs_->log, obs::LogLevel::kInfo, "replication",
            "shipped seq " + std::to_string(report.seq) + " through lsn " +
                std::to_string(report.shipped_lsn) + " (" +
                std::to_string(report.files_copied) + " file(s), " +
                std::to_string(report.bytes_copied) + " bytes)");

  // Publish. kReorder withholds this manifest and lets the *next* attempt
  // re-publish it after its own — the classic late datagram.
  const std::string encoded = manifest.Encode();
  const std::string manifest_path =
      (fs::path(replica_dir_) / kManifestFileName).string();
  if (report.fault == fault::ActionKind::kReorder) {
    reorder_stash_ = encoded;
    return report;
  }
  CADDB_RETURN_IF_ERROR(
      fault::Inject(fault::sites::kReplicationShipManifest));
  CADDB_RETURN_IF_ERROR(wal::AtomicWriteFile(manifest_path, encoded));
  if (report.fault == fault::ActionKind::kDuplicate) {
    CADDB_RETURN_IF_ERROR(wal::AtomicWriteFile(manifest_path, encoded));
  }
  if (!reorder_stash_.empty()) {
    CADDB_RETURN_IF_ERROR(
        wal::AtomicWriteFile(manifest_path, reorder_stash_));
    reorder_stash_.clear();
  }

  // Garbage-collect replica files the manifest no longer references
  // (segments truncated away, superseded checkpoints) — but only after a
  // clean publish, so a follower mid-catch-up on the previous manifest
  // never races a deletion of files it was promised.
  if (report.fault == fault::ActionKind::kOff ||
      report.fault == fault::ActionKind::kDuplicate) {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(replica_dir_, ec)) {
      if (!entry.is_regular_file(ec)) continue;
      const std::string name = entry.path().filename().string();
      const bool shippable =
          (name.rfind("wal-", 0) == 0 &&
           name.size() > 4 && name.substr(name.size() - 4) == ".log") ||
          (name.rfind("checkpoint-", 0) == 0 &&
           name.size() > 3 && name.substr(name.size() - 3) == ".db");
      if (!shippable) continue;
      bool referenced = name == manifest.checkpoint.file;
      for (const ManifestSegment& seg : manifest.segments) {
        referenced = referenced || name == seg.file;
      }
      if (referenced) continue;
      if (fs::remove(entry.path(), ec)) ++report.files_deleted;
    }
  }
  return report;
}

}  // namespace replication
}  // namespace caddb
