#include "wal/recovery.h"

#include <filesystem>
#include <map>
#include <set>
#include <vector>

#include "core/database.h"
#include "persist/dump.h"
#include "wal/checkpoint.h"
#include "wal/crc32c.h"
#include "wal/log_io.h"
#include "wal/record.h"

namespace caddb {
namespace wal {

namespace fs = std::filesystem;

std::string RecoveryReport::ToString() const {
  std::string out;
  out += "checkpoint:    ";
  out += checkpoint_path.empty()
             ? "none"
             : checkpoint_path + " (lsn " + std::to_string(checkpoint_lsn) +
                   ", generation " + std::to_string(generation) + ")";
  out += "\n";
  out += "log:           " + std::to_string(records_scanned) +
         " record(s) over " + std::to_string(segments_scanned) +
         " segment(s), trustworthy through lsn " + std::to_string(last_lsn) +
         "\n";
  out += "replayed:      " + std::to_string(records_applied) +
         " operation(s), " + std::to_string(txns_committed) +
         " transaction(s) committed, " + std::to_string(txns_discarded) +
         " discarded\n";
  if (!tail_error.empty()) {
    out += "torn tail:     " + tail_error + "\n";
  }
  if (fsck_ran) {
    out += std::string("fsck:          clean") +
           (repaired ? " (after index repair)" : "") + "\n";
  }
  return out;
}

namespace {

/// One decoded, committed-or-pending log record plus where it came from
/// (for error messages).
struct ScannedRecord {
  uint64_t lsn = 0;
  Record record;
  uint32_t payload_crc = 0;  // masked CRC32C of the encoded payload
  std::string where;         // "wal-....log lsn N"
};

/// Folds one applied record into the running replay fingerprint: a chained
/// CRC32C over (previous fingerprint, lsn, payload crc).
uint32_t CombineFingerprint(uint32_t fingerprint, uint64_t lsn,
                            uint32_t payload_crc) {
  unsigned char buf[16];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<unsigned char>(fingerprint >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    buf[4 + i] = static_cast<unsigned char>(lsn >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    buf[12 + i] = static_cast<unsigned char>(payload_crc >> (8 * i));
  }
  return Crc32c(reinterpret_cast<const char*>(buf), sizeof(buf));
}

/// Applies one already-committed record to `db`, translating the writing
/// process's surrogates through `mapping` (old id -> new id) and generic
/// binding ids through `binding_mapping`.
Status ApplyRecord(const Record& r, Database* db,
                   std::map<uint64_t, uint64_t>* mapping,
                   std::map<uint64_t, uint64_t>* binding_mapping) {
  auto map_id = [&](uint64_t old_id) -> Result<Surrogate> {
    auto it = mapping->find(old_id);
    if (it == mapping->end()) {
      return ParseError("log references unknown surrogate @" +
                        std::to_string(old_id));
    }
    return Surrogate(it->second);
  };
  auto map_participants = [&](const std::map<
      std::string, std::vector<uint64_t>>& participants)
      -> Result<std::map<std::string, std::vector<Surrogate>>> {
    std::map<std::string, std::vector<Surrogate>> out;
    for (const auto& [role, members] : participants) {
      std::vector<Surrogate>& mapped = out[role];
      for (uint64_t m : members) {
        CADDB_ASSIGN_OR_RETURN(Surrogate s, map_id(m));
        mapped.push_back(s);
      }
    }
    return out;
  };

  switch (r.type) {
    case RecordType::kBegin:
    case RecordType::kCommit:
    case RecordType::kAbort:
      return OkStatus();  // markers carry no state
    case RecordType::kDdl:
      return db->ExecuteDdl(r.text);
    case RecordType::kCreateClass:
      return db->CreateClass(r.name, r.aux);
    case RecordType::kCreateObject: {
      CADDB_ASSIGN_OR_RETURN(Surrogate created,
                             db->CreateObject(r.name, r.aux));
      (*mapping)[r.result] = created.id;
      return OkStatus();
    }
    case RecordType::kCreateSubobject: {
      CADDB_ASSIGN_OR_RETURN(Surrogate parent, map_id(r.a));
      CADDB_ASSIGN_OR_RETURN(Surrogate created,
                             db->CreateSubobject(parent, r.name));
      (*mapping)[r.result] = created.id;
      return OkStatus();
    }
    case RecordType::kCreateRelationship: {
      CADDB_ASSIGN_OR_RETURN(auto participants,
                             map_participants(r.participants));
      CADDB_ASSIGN_OR_RETURN(Surrogate created,
                             db->CreateRelationship(r.name, participants));
      (*mapping)[r.result] = created.id;
      return OkStatus();
    }
    case RecordType::kCreateSubrel: {
      CADDB_ASSIGN_OR_RETURN(Surrogate owner, map_id(r.a));
      CADDB_ASSIGN_OR_RETURN(auto participants,
                             map_participants(r.participants));
      CADDB_ASSIGN_OR_RETURN(Surrogate created,
                             db->CreateSubrel(owner, r.name, participants));
      (*mapping)[r.result] = created.id;
      return OkStatus();
    }
    case RecordType::kBind: {
      CADDB_ASSIGN_OR_RETURN(Surrogate inheritor, map_id(r.a));
      CADDB_ASSIGN_OR_RETURN(Surrogate transmitter, map_id(r.b));
      CADDB_ASSIGN_OR_RETURN(Surrogate created,
                             db->Bind(inheritor, transmitter, r.name));
      (*mapping)[r.result] = created.id;
      return OkStatus();
    }
    case RecordType::kUnbind: {
      CADDB_ASSIGN_OR_RETURN(Surrogate inheritor, map_id(r.a));
      return db->Unbind(inheritor);
    }
    case RecordType::kSetAttribute: {
      CADDB_ASSIGN_OR_RETURN(Surrogate object, map_id(r.a));
      CADDB_ASSIGN_OR_RETURN(Value remapped,
                             persist::RemapValueRefs(r.value, *mapping));
      return db->Set(object, r.name, std::move(remapped));
    }
    case RecordType::kDelete: {
      CADDB_ASSIGN_OR_RETURN(Surrogate object, map_id(r.a));
      return db->Delete(object,
                        r.detach ? ObjectStore::DeletePolicy::kDetachInheritors
                                 : ObjectStore::DeletePolicy::kRestrict);
    }
    case RecordType::kCreateDesign:
      return db->versions().CreateDesignObject(r.name, r.aux);
    case RecordType::kAddVersion: {
      CADDB_ASSIGN_OR_RETURN(Surrogate object, map_id(r.a));
      std::vector<Surrogate> predecessors;
      for (uint64_t p : r.ids) {
        CADDB_ASSIGN_OR_RETURN(Surrogate mapped, map_id(p));
        predecessors.push_back(mapped);
      }
      return db->versions().AddVersion(r.name, object, predecessors);
    }
    case RecordType::kSetVersionState: {
      CADDB_ASSIGN_OR_RETURN(Surrogate object, map_id(r.a));
      CADDB_ASSIGN_OR_RETURN(VersionState state,
                             VersionStateFromName(r.aux));
      return db->versions().SetState(r.name, object, state);
    }
    case RecordType::kSetDefaultVersion: {
      CADDB_ASSIGN_OR_RETURN(Surrogate object, map_id(r.a));
      return db->versions().SetDefaultVersion(r.name, object);
    }
    case RecordType::kBindGeneric: {
      CADDB_ASSIGN_OR_RETURN(Surrogate inheritor, map_id(r.a));
      CADDB_ASSIGN_OR_RETURN(
          uint64_t binding,
          db->versions().BindGeneric(inheritor, r.name, r.aux));
      (*binding_mapping)[r.result] = binding;
      return OkStatus();
    }
    case RecordType::kMarkResolved: {
      auto it = binding_mapping->find(r.result);
      if (it == binding_mapping->end()) {
        return ParseError("log references unknown generic binding #" +
                          std::to_string(r.result));
      }
      CADDB_ASSIGN_OR_RETURN(Surrogate version, map_id(r.a));
      return db->versions().MarkResolved(it->second, version);
    }
  }
  return InternalError("unhandled record type");
}

}  // namespace

Result<RecoveryReport> Recover(const std::string& dir, Database* db,
                               const DurabilityOptions& options) {
  if (db->store().size() != 0 || !db->catalog().ObjectTypeNames().empty()) {
    return FailedPrecondition("Recover requires an empty database");
  }
  // The database being rebuilt owns (or adopted) the bundle recovery
  // reports into.
  obs::Observability* obs = db->observability();
  obs->metrics
      .GetCounter("caddb_recovery_runs_total", "Recovery passes started")
      ->Increment();
  obs::Span span(&obs->trace, "recovery.replay",
                 obs->metrics.GetHistogram(
                     "caddb_recovery_replay_us",
                     "Whole recovery pass: checkpoint load + scan + redo"),
                 /*always_time=*/true);
  RecoveryReport report;

  // 0. GC: debris of atomic publishes cut down by a crash between create
  // and rename. Only when we may write — a read-only observer must not
  // mutate a directory another process may be recovering.
  if (!options.read_only) {
    CADDB_RETURN_IF_ERROR(RemoveStaleTempFiles(dir).status());
  }

  // 1. Snapshot: newest checkpoint whose CRC matches.
  CADDB_ASSIGN_OR_RETURN(LoadedCheckpoint checkpoint,
                         ReadNewestCheckpoint(dir));
  std::map<uint64_t, uint64_t> mapping;  // writer's surrogate -> ours
  if (!checkpoint.path.empty()) {
    // Objects live on pages. Open the page file (healing any torn pages
    // from the checkpoint's double-write images), adopt every paged object
    // with its original surrogate, then apply the meta snapshot (schema,
    // classes, version graph, allocator). Surrogates are NOT remapped —
    // the page file is authoritative — so replay's translation map is
    // seeded with identities.
    CADDB_RETURN_IF_ERROR(
        Annotate("checkpoint '" + checkpoint.path + "'",
                 db->InitPagedStore(dir, checkpoint.pages, options)));
    CADDB_RETURN_IF_ERROR(
        Annotate("checkpoint '" + checkpoint.path + "'",
                 persist::LoadMeta(checkpoint.meta, db)));
    db->store().RepairIndexes();
    for (Surrogate s : db->store().AllObjects()) mapping[s.id] = s.id;
  }
  report.checkpoint_lsn = checkpoint.lsn;
  report.generation = checkpoint.generation;
  report.checkpoint_path = checkpoint.path;
  report.last_lsn = checkpoint.lsn;
  const uint64_t replay_floor = checkpoint.replay_floor();

  // 2. Scan: every valid frame past the checkpoint, in lsn order. A
  // transaction left open across checkpoints keeps the segments back to
  // its begin, so the log is a *chain* of segments and segment seams are
  // verified before anything is trusted: a non-final segment must end
  // cleanly exactly one lsn before its successor starts. Only the chain's
  // effective tail may be torn (a crash mid-append) or empty (a crashed
  // rotation created the file and died before appending — including the
  // zero-length-file case, which is a clean recovery, not corruption).
  // A torn or missing segment in the *middle* of the chain is committed
  // data that cannot be replayed — that fails loudly instead of silently
  // recovering a hole.
  struct LoadedSegment {
    SegmentFileInfo info;
    SegmentContents contents;
    std::string name;
  };
  std::vector<LoadedSegment> segments;
  for (const SegmentFileInfo& segment : ListSegments(dir)) {
    CADDB_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(segment.path));
    segments.push_back({segment, DecodeFrames(bytes),
                        fs::path(segment.path).filename().string()});
  }
  if (!segments.empty() && replay_floor != 0 &&
      segments.front().info.start_lsn > replay_floor + 1) {
    return InternalError(
        "wal gap: replay needs lsn " + std::to_string(replay_floor + 1) +
        " (checkpoint lsn " + std::to_string(checkpoint.lsn) +
        ") but the oldest segment " + segments.front().name + " starts at " +
        std::to_string(segments.front().info.start_lsn) +
        " — records in between are missing");
  }
  size_t scan_limit = segments.size();
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    const LoadedSegment& seg = segments[i];
    if (!seg.contents.tail_error.empty()) {
      // A torn non-final segment is tolerable only as the effective tail:
      // every later segment must be an empty crashed-rotation artifact.
      for (size_t j = i + 1; j < segments.size(); ++j) {
        if (!segments[j].contents.frames.empty()) {
          return InternalError("wal " + seg.name +
                               " is torn in the middle of the log (" +
                               seg.contents.tail_error + ") but " +
                               segments[j].name +
                               " still holds records — committed data "
                               "between them is unrecoverable");
        }
      }
      scan_limit = i + 1;
      break;
    }
    uint64_t end_lsn = seg.contents.frames.empty()
                           ? seg.info.start_lsn - 1
                           : seg.contents.frames.back().lsn;
    if (end_lsn + 1 != segments[i + 1].info.start_lsn) {
      return InternalError(
          "wal gap between " + seg.name + " (ends at lsn " +
          std::to_string(end_lsn) + ") and " + segments[i + 1].name +
          " (starts at lsn " +
          std::to_string(segments[i + 1].info.start_lsn) + ")");
    }
  }

  std::vector<ScannedRecord> records;
  uint64_t prev_lsn = 0;
  for (size_t i = 0; i < scan_limit; ++i) {
    const LoadedSegment& segment = segments[i];
    ++report.segments_scanned;
    for (const Frame& frame : segment.contents.frames) {
      ++report.records_scanned;
      if (prev_lsn != 0 && frame.lsn <= prev_lsn) {
        return InternalError("wal " + segment.name +
                             ": lsn went backwards (" +
                             std::to_string(frame.lsn) + " after " +
                             std::to_string(prev_lsn) + ")");
      }
      prev_lsn = frame.lsn;
      if (frame.lsn <= replay_floor) continue;  // covered by the snapshot
      const std::string where =
          "wal " + segment.name + " lsn " + std::to_string(frame.lsn);
      // A frame whose CRC matched but whose payload does not decode is not
      // a crash artifact — fail loudly instead of silently dropping data.
      Result<Record> record = Record::Decode(frame.payload);
      CADDB_RETURN_IF_ERROR(Annotate(where, record.status()));
      report.last_lsn = std::max(report.last_lsn, frame.lsn);
      records.push_back({frame.lsn, std::move(*record),
                         Crc32c(frame.payload.data(), frame.payload.size()),
                         where});
    }
    if (!segment.contents.tail_error.empty()) {
      report.tail_error = segment.name + ": " + segment.contents.tail_error;
      break;
    }
  }

  // 3. Commit analysis: a transaction's records count only if its commit
  // marker made it into the trustworthy prefix. Auto-committed records
  // (txn 0) are their own commit point. The commit *lsn* is kept, not just
  // membership: the fingerprint-at-watermark below needs to know whether a
  // transaction would already have been committed by a recovery cut at the
  // watermark.
  std::set<uint64_t> seen_txns;
  std::map<uint64_t, uint64_t> commit_lsn;  // txn -> lsn of its kCommit
  for (const ScannedRecord& scanned : records) {
    if (scanned.record.txn != kAutoCommitTxn) {
      seen_txns.insert(scanned.record.txn);
    }
    if (scanned.record.type == RecordType::kCommit &&
        scanned.record.txn != kAutoCommitTxn) {
      commit_lsn[scanned.record.txn] = scanned.lsn;
    }
  }
  report.txns_committed = commit_lsn.size();
  report.txns_discarded = seen_txns.size() - commit_lsn.size();

  // 4. Redo: committed records in original lsn order, through the public
  // API, with surrogate translation.
  std::map<uint64_t, uint64_t> binding_mapping;
  for (const ScannedRecord& scanned : records) {
    const Record& r = scanned.record;
    // Pre-checkpoint records reach here only below a checkpoint's
    // replay window. An auto-committed one is already in the snapshot; a
    // transaction's records matter only when its commit marker landed
    // *after* the checkpoint (a commit at or before it means the capture
    // saw the transaction as finished and included its state unmasked).
    if (r.txn == kAutoCommitTxn) {
      if (scanned.lsn <= checkpoint.lsn) continue;
    } else {
      auto committed = commit_lsn.find(r.txn);
      if (committed == commit_lsn.end() || committed->second <= checkpoint.lsn)
        continue;
    }
    if (r.type == RecordType::kBegin || r.type == RecordType::kCommit ||
        r.type == RecordType::kAbort) {
      continue;
    }
    CADDB_RETURN_IF_ERROR(
        Annotate(scanned.where,
                 ApplyRecord(r, db, &mapping, &binding_mapping)));
    ++report.records_applied;
    report.applied_fingerprint = CombineFingerprint(
        report.applied_fingerprint, scanned.lsn, scanned.payload_crc);
    // fingerprint_at is its own chain over the records a recovery cut at
    // the watermark would have applied: both the record and its commit
    // point must lie at or before the watermark. (A transaction whose
    // records straddle the watermark but whose commit arrived later was
    // *discarded* by the earlier recovery this fingerprint is compared
    // against — folding its records in would fabricate a divergence.)
    if (options.fingerprint_lsn != 0 &&
        scanned.lsn <= options.fingerprint_lsn &&
        (r.txn == kAutoCommitTxn ||
         commit_lsn[r.txn] <= options.fingerprint_lsn)) {
      report.fingerprint_at = CombineFingerprint(
          report.fingerprint_at, scanned.lsn, scanned.payload_crc);
    }
  }

  // 5. fsck: the replayed store must pass the static integrity analysis,
  // so a replay that produced an inconsistent store fails Open instead of
  // handing out a corrupt database. On errors, rebuild the secondary
  // indexes and re-run it once before giving up.
  report.fsck_ran = true;
  analysis::DiagnosticBag findings = db->CheckStore();
  if (findings.HasErrors()) {
    db->store().RepairIndexes();
    report.repaired = true;
    findings = db->CheckStore();
  }
  if (findings.HasErrors()) {
    return InternalError("post-recovery fsck failed: " + findings.Summary());
  }
  obs->metrics
      .GetCounter("caddb_recovery_records_applied_total",
                  "Operations re-executed across all recovery passes")
      ->Increment(report.records_applied);
  obs->metrics
      .GetCounter("caddb_recovery_txns_discarded_total",
                  "Uncommitted or aborted transactions dropped by replay")
      ->Increment(report.txns_discarded);
  span.AddAttribute("records_applied", report.records_applied);
  span.AddAttribute("txns_committed", report.txns_committed);
  span.AddAttribute("last_lsn", report.last_lsn);
  return report;
}

}  // namespace wal
}  // namespace caddb
