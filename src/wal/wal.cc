#include "wal/wal.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "fault/failpoint.h"

namespace caddb {
namespace wal {

namespace fs = std::filesystem;

const char* SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kAlways:
      return "always";
    case SyncPolicy::kBatch:
      return "batch";
    case SyncPolicy::kNone:
      return "none";
  }
  return "?";
}

Result<SyncPolicy> SyncPolicyFromName(const std::string& name) {
  if (name == "always") return SyncPolicy::kAlways;
  if (name == "batch") return SyncPolicy::kBatch;
  if (name == "none") return SyncPolicy::kNone;
  return InvalidArgument("unknown sync policy '" + name +
                         "' (expected always, batch, or none)");
}

std::string WalStats::ToString() const {
  std::string out;
  out += "wal dir:       " + dir + "\n";
  out += "sync policy:   " + std::string(SyncPolicyName(policy)) + "\n";
  out += "last lsn:      " + std::to_string(last_lsn) + " (synced through " +
         std::to_string(synced_lsn) + ")\n";
  out += "live segment:  " + SegmentFileName(segment_start_lsn) + "\n";
  out += "records:       " + std::to_string(records_appended) + " appended, " +
         std::to_string(commits) + " commit points, " +
         std::to_string(bytes_appended) + " bytes\n";
  out += "fsyncs:        " + std::to_string(fsyncs) + " over " +
         std::to_string(segments_created) + " segment(s)\n";
  return out;
}

std::string SegmentFileName(uint64_t start_lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.log",
                static_cast<unsigned long long>(start_lsn));
  return buf;
}

std::vector<SegmentFileInfo> ListSegments(const std::string& dir) {
  std::vector<SegmentFileInfo> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long start = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "wal-%16llx.log%n", &start, &consumed) ==
            1 &&
        static_cast<size_t>(consumed) == name.size()) {
      out.push_back({entry.path().string(), static_cast<uint64_t>(start)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentFileInfo& a, const SegmentFileInfo& b) {
              return a.start_lsn < b.start_lsn;
            });
  return out;
}

Wal::Wal(std::string dir, WalOptions options, uint64_t next_lsn)
    : dir_(std::move(dir)),
      options_(std::move(options)),
      obs_(obs::SharedOrOwned(options_.obs, &owned_obs_)),
      next_lsn_(next_lsn) {
  synced_lsn_ = next_lsn_ - 1;
  m_appends_ = obs_->metrics.GetCounter("caddb_wal_appends_total",
                                        "Records appended to the log");
  m_commits_ = obs_->metrics.GetCounter(
      "caddb_wal_commits_total",
      "Commit points (transaction commits + auto-committed operations)");
  m_fsyncs_ = obs_->metrics.GetCounter("caddb_wal_fsyncs_total",
                                       "fsync calls on the live segment");
  m_bytes_ = obs_->metrics.GetCounter("caddb_wal_bytes_appended_total",
                                      "Encoded frame bytes appended");
  m_segments_ = obs_->metrics.GetCounter(
      "caddb_wal_segments_total",
      "Segment files created (one at open, one per checkpoint rotation)");
  m_fsync_us_ = obs_->metrics.GetHistogram(
      "caddb_wal_fsync_us", "fsync latency");
  m_commits_per_fsync_ = obs_->metrics.GetHistogram(
      "caddb_wal_commits_per_fsync",
      "Commit points made durable by one fsync (group-commit batching)",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  m_append_us_ = obs_->metrics.GetHistogram(
      "caddb_wal_append_us",
      "Append and commit latency (us), recorded whether or not tracing is "
      "enabled");
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       const WalOptions& options,
                                       uint64_t next_lsn) {
  if (next_lsn == 0) return InvalidArgument("lsn 0 is reserved (pre-log)");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return InternalError("cannot create wal directory '" + dir +
                         "': " + ec.message());
  }
  std::unique_ptr<Wal> wal(new Wal(dir, options, next_lsn));
  {
    std::lock_guard<std::mutex> lock(wal->mu_);
    CADDB_RETURN_IF_ERROR(wal->OpenSegmentLocked(next_lsn));
  }
  return wal;
}

Status Wal::OpenSegmentLocked(uint64_t start_lsn) {
  const std::string path =
      (fs::path(dir_) / SegmentFileName(start_lsn)).string();
  CADDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         OpenWritableFile(path));
  // Registry-armed byte cut (`fault arm wal.file.cut cut=N`), the crash
  // matrix's simulated crash: the new segment silently loses every byte
  // past the budget and its fsyncs lie.
  fault::FiredAction cut;
  if (fault::Hit(fault::sites::kWalFileCut, &cut) &&
      cut.kind == fault::ActionKind::kCut) {
    file = std::make_unique<FailpointFile>(std::move(file), cut.arg);
  }
  file_ = std::move(file);
  segment_start_lsn_ = start_lsn;
  m_segments_->Increment();
  // Make the (empty) segment's directory entry durable so recovery sees a
  // clean new segment rather than nothing.
  return SyncDir(dir_);
}

Result<uint64_t> Wal::AppendLocked(std::unique_lock<std::mutex>& lock,
                                   const Record& record) {
  rotate_done_cv_.wait(lock, [&] { return !rotating_ || closed_; });
  if (closed_) return FailedPrecondition("wal is closed");
  if (!sync_error_.ok()) return sync_error_;
  uint64_t lsn = next_lsn_++;
  std::string frame = EncodeFrame(lsn, record.Encode());
  CADDB_RETURN_IF_ERROR(file_->Append(frame));
  m_appends_->Increment();
  m_bytes_->Increment(frame.size());
  return lsn;
}

Status Wal::SyncThroughLocked(std::unique_lock<std::mutex>& lock,
                              uint64_t target) {
  sync_done_cv_.wait(lock, [&] {
    return synced_lsn_ >= target || !sync_error_.ok() || !sync_in_flight_;
  });
  if (synced_lsn_ >= target) return OkStatus();
  if (!sync_error_.ok()) return sync_error_;
  // Leader: this fsync covers every record appended so far (target
  // included), also those of committers now waiting for it. Committers
  // keep appending to the same descriptor while it runs (concurrent
  // write + fsync on one fd is safe); only `covered` is claimed.
  sync_in_flight_ = true;
  unsynced_commits_ = 0;
  WritableFile* file = file_.get();
  const uint64_t covered = next_lsn_ - 1;
  lock.unlock();
  Status s;
  {
    obs::Span span(&obs_->trace, "wal.fsync", m_fsync_us_,
                   /*always_time=*/true);
    span.AddAttribute("target_lsn", covered);
    s = fault::Inject(fault::sites::kWalAppendPreFsync);
    if (s.ok()) s = file->Sync();
  }
  lock.lock();
  sync_in_flight_ = false;
  if (s.ok()) {
    synced_lsn_ = covered;
    m_fsyncs_->Increment();
    // The commit points this fsync made durable (group-commit batching).
    if (commits_since_fsync_ > 0) {
      m_commits_per_fsync_->Record(commits_since_fsync_);
      commits_since_fsync_ = 0;
    }
  } else {
    sync_error_ = s;
    CADDB_LOG(&obs_->log, obs::LogLevel::kError, "wal",
              "fsync failed (log poisoned): " + s.ToString());
  }
  sync_done_cv_.notify_all();
  return s;
}

Status Wal::CommitPolicyLocked(std::unique_lock<std::mutex>& lock,
                              uint64_t commit_lsn) {
  switch (options_.sync) {
    case SyncPolicy::kAlways:
      return SyncThroughLocked(lock, commit_lsn);
    case SyncPolicy::kBatch: {
      if (unsynced_commits_ == 0) {
        oldest_unsynced_commit_ = std::chrono::steady_clock::now();
      }
      ++unsynced_commits_;
      bool full = unsynced_commits_ >= options_.batch_commits;
      bool overdue =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - oldest_unsynced_commit_)
              .count() >= static_cast<int64_t>(options_.batch_interval_us);
      // The committer that fills or outlasts the batch waits for its fsync.
      if (full || overdue) return SyncThroughLocked(lock, commit_lsn);
      return OkStatus();
    }
    case SyncPolicy::kNone:
      return OkStatus();
  }
  return OkStatus();
}

Result<uint64_t> Wal::Append(const Record& record) {
  obs::Span span(&obs_->trace, "wal.append", m_append_us_,
                 /*always_time=*/true);
  std::unique_lock<std::mutex> lock(mu_);
  return AppendLocked(lock, record);
}

Status Wal::AppendCommit(const Record& record) {
  obs::Span span(&obs_->trace, "wal.commit", m_append_us_,
                 /*always_time=*/true);
  std::unique_lock<std::mutex> lock(mu_);
  CADDB_ASSIGN_OR_RETURN(const uint64_t lsn, AppendCommitLocked(lock, record));
  return CommitPolicyLocked(lock, lsn);
}

Result<uint64_t> Wal::AppendCommitRecord(const Record& record) {
  obs::Span span(&obs_->trace, "wal.commit", m_append_us_,
                 /*always_time=*/true);
  std::unique_lock<std::mutex> lock(mu_);
  return AppendCommitLocked(lock, record);
}

Result<uint64_t> Wal::AppendCommitLocked(std::unique_lock<std::mutex>& lock,
                                         const Record& record) {
  CADDB_ASSIGN_OR_RETURN(const uint64_t lsn, AppendLocked(lock, record));
  // The committing thread's open trace (the wal.commit span, with its
  // net.request/client ancestry) — the shipper's manifest stamp.
  last_commit_ctx_ = obs_->trace.CurrentContext();
  m_commits_->Increment();
  ++commits_since_fsync_;
  return lsn;
}

obs::TraceContext Wal::last_commit_context() const {
  std::unique_lock<std::mutex> lock(mu_);
  return last_commit_ctx_;
}

Status Wal::FinishCommit(uint64_t commit_lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return FailedPrecondition("wal is closed");
  return CommitPolicyLocked(lock, commit_lsn);
}

Status Wal::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return FailedPrecondition("wal is closed");
  return SyncThroughLocked(lock, next_lsn_ - 1);
}

Status Wal::RotateAndTruncate(uint64_t retain_from) {
  std::unique_lock<std::mutex> lock(mu_);
  // One rotation at a time. Block new appends, sync everything appended so
  // far, then wait out any fsync still in flight: after this, the
  // segment's bytes are stable and nobody touches the file descriptor we
  // are about to close.
  rotate_done_cv_.wait(lock, [&] { return !rotating_; });
  if (closed_) return FailedPrecondition("wal is closed");
  rotating_ = true;
  struct RotationGuard {
    Wal* wal;
    ~RotationGuard() {
      wal->rotating_ = false;
      wal->rotate_done_cv_.notify_all();
    }
  } guard{this};
  CADDB_RETURN_IF_ERROR(SyncThroughLocked(lock, next_lsn_ - 1));
  sync_done_cv_.wait(lock, [&] { return !sync_in_flight_; });
  CADDB_RETURN_IF_ERROR(file_->Close());
  const uint64_t old_start = segment_start_lsn_;
  CADDB_RETURN_IF_ERROR(OpenSegmentLocked(next_lsn_));
  // A segment may be deleted once every record in it is covered by the
  // published checkpoint AND precedes retain_from (the oldest lsn a
  // transaction spanning the checkpoint may still need replayed); a
  // segment's records end where the next segment begins.
  std::vector<SegmentFileInfo> segments = ListSegments(dir_);
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentFileInfo& segment = segments[i];
    if (segment.start_lsn > old_start ||
        segment.start_lsn == segment_start_lsn_) {
      continue;
    }
    const uint64_t next_start =
        i + 1 < segments.size() ? segments[i + 1].start_lsn : next_lsn_;
    if (retain_from != 0 && next_start > retain_from) continue;
    std::error_code ec;
    fs::remove(segment.path, ec);
    if (ec) {
      return InternalError("cannot remove old segment '" + segment.path +
                           "': " + ec.message());
    }
  }
  return SyncDir(dir_);
}

Status Wal::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  rotate_done_cv_.wait(lock, [&] { return !rotating_; });
  if (closed_) return OkStatus();
  closed_ = true;  // appends, commits and syncs fail from here on
  Status synced = SyncThroughLocked(lock, next_lsn_ - 1);
  sync_done_cv_.wait(lock, [&] { return !sync_in_flight_; });
  CADDB_RETURN_IF_ERROR(synced);
  return file_->Close();
}

uint64_t Wal::AllocateGroupTxn() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_group_txn_++;
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

WalStats Wal::stats() const {
  WalStats out;
  out.dir = dir_;
  out.policy = options_.sync;
  // Every increment happens under mu_, so this is a consistent snapshot.
  std::lock_guard<std::mutex> lock(mu_);
  out.records_appended = m_appends_->value();
  out.commits = m_commits_->value();
  out.fsyncs = m_fsyncs_->value();
  out.segments_created = m_segments_->value();
  out.bytes_appended = m_bytes_->value();
  out.segment_start_lsn = segment_start_lsn_;
  out.synced_lsn = synced_lsn_;
  out.last_lsn = next_lsn_ - 1;
  return out;
}

}  // namespace wal
}  // namespace caddb
