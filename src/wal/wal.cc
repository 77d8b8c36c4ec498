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
      "caddb_wal_fsync_us", "fsync latency (in-line and syncer-thread)");
  m_commits_per_fsync_ = obs_->metrics.GetHistogram(
      "caddb_wal_commits_per_fsync",
      "Commit points made durable by one fsync (group-commit batching)",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  m_append_us_ = obs_->metrics.GetHistogram(
      "caddb_wal_append_us",
      "Append and commit latency (us), recorded whether or not tracing is "
      "enabled");
}

Wal::~Wal() {
  // Destruction without Close is the crash path: drop the file unsynced.
  // The syncer thread still has to be joined (it may be mid-fsync; letting
  // that finish is harmless — a crash that syncs *more* than required).
  {
    std::lock_guard<std::mutex> lock(mu_);
    syncer_stop_ = true;
  }
  syncer_wake_cv_.notify_all();
  if (syncer_.joinable()) syncer_.join();
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
  if (options.batched_fsync) {
    wal->syncer_ = std::thread(&Wal::SyncerLoop, wal.get());
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

void Wal::RequestSyncLocked(uint64_t target) {
  if (target > sync_requested_lsn_) sync_requested_lsn_ = target;
  syncer_wake_cv_.notify_one();
}

Status Wal::SyncFileLocked() {
  uint64_t target = next_lsn_ - 1;
  if (synced_lsn_ >= target) return OkStatus();
  // Timed directly (no Span): this runs under mu_, and span completion may
  // invoke observer callbacks that are allowed to call back into the Wal.
  const uint64_t fsync_start_us = obs::Tracer::NowUs();
  Status s = fault::Inject(fault::sites::kWalAppendPreFsync);
  if (s.ok()) s = file_->Sync();
  m_fsync_us_->Record(obs::Tracer::NowUs() - fsync_start_us);
  if (!s.ok()) {
    sync_error_ = s;
    // Wake batched committers waiting on sync_done_cv_: their predicate
    // checks sync_error_, and the syncer stands down during rotation, so
    // this in-line fsync may be the only wake-up they ever get.
    sync_done_cv_.notify_all();
    return s;
  }
  synced_lsn_ = target;
  CountFsyncLocked();
  sync_done_cv_.notify_all();
  return OkStatus();
}

void Wal::CountFsyncLocked() {
  m_fsyncs_->Increment();
  if (commits_since_fsync_ > 0) {
    m_commits_per_fsync_->Record(commits_since_fsync_);
    commits_since_fsync_ = 0;
  }
}

Status Wal::SyncLocked(std::unique_lock<std::mutex>& lock) {
  if (closed_) return FailedPrecondition("wal is closed");
  if (!sync_error_.ok()) return sync_error_;
  uint64_t target = next_lsn_ - 1;
  unsynced_commits_ = 0;
  if (synced_lsn_ >= target) return OkStatus();
  if (options_.batched_fsync && syncer_.joinable() && !rotating_) {
    RequestSyncLocked(target);
    sync_done_cv_.wait(lock, [&] {
      return synced_lsn_ >= target || !sync_error_.ok();
    });
    return sync_error_;
  }
  // In-line path (also taken during rotation, when the syncer stands down).
  sync_done_cv_.wait(lock, [&] { return !sync_in_flight_; });
  return SyncFileLocked();
}

Status Wal::CommitPolicyLocked(std::unique_lock<std::mutex>& lock) {
  switch (options_.sync) {
    case SyncPolicy::kAlways:
      return SyncLocked(lock);
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
      if (full || overdue) {
        if (options_.batched_fsync && syncer_.joinable()) {
          // Fire-and-forget: kBatch never promised durability at ack time.
          unsynced_commits_ = 0;
          RequestSyncLocked(next_lsn_ - 1);
          return sync_error_;
        }
        return SyncLocked(lock);
      }
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
  CADDB_RETURN_IF_ERROR(AppendCommitLocked(lock, record).status());
  return CommitPolicyLocked(lock);
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

Status Wal::FinishCommit() {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return FailedPrecondition("wal is closed");
  return CommitPolicyLocked(lock);
}

Status Wal::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  return SyncLocked(lock);
}

Status Wal::RotateAndTruncate(uint64_t retain_from) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return FailedPrecondition("wal is closed");
  // Stand the syncer down and block new appends, then drain any in-flight
  // fsync: after this, the segment's bytes are stable and nobody touches
  // the file descriptor we are about to close.
  rotating_ = true;
  struct RotationGuard {
    Wal* wal;
    ~RotationGuard() {
      wal->rotating_ = false;
      wal->rotate_done_cv_.notify_all();
    }
  } guard{this};
  sync_done_cv_.wait(lock, [&] { return !sync_in_flight_; });
  CADDB_RETURN_IF_ERROR(SyncFileLocked());
  unsynced_commits_ = 0;
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

void Wal::SyncerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    syncer_wake_cv_.wait(lock, [&] {
      return syncer_stop_ ||
             (!rotating_ && sync_error_.ok() &&
              sync_requested_lsn_ > synced_lsn_);
    });
    if (syncer_stop_) return;
    WritableFile* file = file_.get();
    uint64_t target = next_lsn_ - 1;
    sync_in_flight_ = true;
    lock.unlock();
    // The fsync runs without the mutex: committers keep appending to the
    // same fd meanwhile (concurrent write+fsync on one descriptor is
    // safe; the fsync simply covers whatever had been written when the
    // kernel processed it — we only *claim* `target`).
    Status s;
    {
      obs::Span span(&obs_->trace, "wal.fsync", m_fsync_us_,
                     /*always_time=*/true);
      span.AddAttribute("target_lsn", target);
      s = file->Sync();
    }
    lock.lock();
    sync_in_flight_ = false;
    if (!s.ok()) {
      sync_error_ = s;
      CADDB_LOG(&obs_->log, obs::LogLevel::kError, "wal",
                "fsync failed (log poisoned): " + s.ToString());
    } else {
      // Rotation waits for !sync_in_flight_ before swapping file_, so the
      // descriptor we synced is still the live segment.
      if (target > synced_lsn_) synced_lsn_ = target;
      CountFsyncLocked();
    }
    sync_done_cv_.notify_all();
  }
}

Status Wal::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return OkStatus();
  Status synced = SyncLocked(lock);
  sync_done_cv_.wait(lock, [&] { return !sync_in_flight_; });
  closed_ = true;
  syncer_stop_ = true;
  syncer_wake_cv_.notify_all();
  rotate_done_cv_.notify_all();
  if (syncer_.joinable()) {
    lock.unlock();
    syncer_.join();
    lock.lock();
  }
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
