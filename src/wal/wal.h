#ifndef CADDB_WAL_WAL_H_
#define CADDB_WAL_WAL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/observability.h"
#include "util/result.h"
#include "wal/log_io.h"
#include "wal/record.h"

namespace caddb {
namespace wal {

/// When a commit becomes durable (fsync policy).
enum class SyncPolicy {
  /// fsync before every commit acknowledgement: a committed transaction is
  /// durable the moment Commit returns.
  kAlways,
  /// Group commit: commits are acknowledged after the buffered write; the
  /// log is fsynced once per `batch_commits` commits or once the oldest
  /// unsynced commit is `batch_interval_us` old, whichever comes first.
  /// On a crash the un-fsynced suffix — at most one batch — may be lost,
  /// but recovery always lands on a committed-prefix state: batches end on
  /// record boundaries and replay discards torn tails and uncommitted
  /// transactions. Atomicity and prefix consistency are identical to
  /// kAlways; only the ack-to-durable window differs.
  kBatch,
  /// Never fsync (except on rotate/close/checkpoint). Durability only up to
  /// the last checkpoint; for bulk loads and benchmark baselines.
  kNone,
};

const char* SyncPolicyName(SyncPolicy policy);
Result<SyncPolicy> SyncPolicyFromName(const std::string& name);

struct WalOptions {
  SyncPolicy sync = SyncPolicy::kAlways;
  /// kBatch: fsync after this many unsynced commits...
  size_t batch_commits = 32;
  /// ...or once the oldest unsynced commit is this old.
  uint64_t batch_interval_us = 1000;
  /// Metrics/trace bundle the log reports into (not owned; must outlive the
  /// Wal). Null gives the Wal a private bundle (obs::SharedOrOwned).
  /// Database::Open injects the database's own bundle here.
  obs::Observability* obs = nullptr;
};

/// Point-in-time view for `wal status` and the benchmarks: the log's
/// position, plus the counters of its bundle's caddb_wal_* registry
/// entries (the only place those events are counted).
struct WalStats {
  std::string dir;
  SyncPolicy policy = SyncPolicy::kAlways;
  uint64_t last_lsn = 0;          // last appended record
  uint64_t synced_lsn = 0;        // last record guaranteed on disk
  uint64_t segment_start_lsn = 0; // first lsn of the live segment
  uint64_t records_appended = 0;
  uint64_t commits = 0;           // commit points (txn commits + auto-commits)
  uint64_t fsyncs = 0;
  uint64_t segments_created = 0;
  uint64_t bytes_appended = 0;

  std::string ToString() const;
};

/// One segment file on disk: `wal-<first-lsn, 16 hex digits>.log`.
struct SegmentFileInfo {
  std::string path;
  uint64_t start_lsn = 0;
};

/// Segment files of `dir` sorted by start lsn. Non-segment files ignored.
std::vector<SegmentFileInfo> ListSegments(const std::string& dir);

/// Segment file name for a starting lsn.
std::string SegmentFileName(uint64_t start_lsn);

/// The append side of the write-ahead log: length-prefixed CRC32C-framed
/// records in numbered segment files, group-commit batching, and rotation
/// with truncation at checkpoints (the only time a segment closes).
/// Thread-safe — the transaction manager appends from concurrent
/// committers. Group commit needs no helper thread: the first committer
/// that needs an fsync becomes the leader and runs it outside the log
/// mutex, covering every record buffered before it; committers arriving
/// meanwhile append and wait for it, and one of them leads the next. A
/// failed fsync is sticky: every later commit/sync reports it.
///
/// The Wal never reads its own files; recovery (wal/recovery.h) scans
/// segments independently before a Wal is opened for the new process, and
/// always into a *fresh* segment — a torn tail from a crash is never
/// appended to.
class Wal {
 public:
  /// Starts logging into the new segment `wal-<next_lsn>.log` under `dir`
  /// (created if missing). `next_lsn` is 1 for a fresh database or
  /// last-recovered-lsn + 1 after recovery.
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir,
                                           const WalOptions& options,
                                           uint64_t next_lsn);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends without forcing a sync: transaction-interior records, whose
  /// durability rides on the following commit marker. Returns the lsn.
  Result<uint64_t> Append(const Record& record);

  /// Appends `record` and applies the sync policy: commit markers and
  /// auto-committed single operations go through here.
  Status AppendCommit(const Record& record);

  /// Split commit, for a caller that must assign the commit marker's lsn
  /// inside its own critical section but must not hold that section across
  /// an fsync: the transaction manager appends the marker under the store
  /// gate (so checkpoint capture observes marker-lsn assignment and
  /// active-set changes atomically), releases the gate, then waits for
  /// durability. AppendCommitRecord appends the marker and counts the
  /// commit point, returning its lsn; FinishCommit applies the sync policy
  /// to that lsn (kAlways returns once an fsync covers it). AppendCommit is
  /// the fused form.
  Result<uint64_t> AppendCommitRecord(const Record& record);
  Status FinishCommit(uint64_t commit_lsn);

  /// Forces everything appended so far to disk.
  Status Sync();

  /// Syncs and switches to a fresh segment starting at last_lsn() + 1, then
  /// deletes older segments — called by checkpointing after the snapshot
  /// covering those records has been atomically published. Every segment
  /// holding records at or above `retain_from_lsn` is retained: a segment
  /// is deleted only when the following segment starts at or below that
  /// lsn (so all its records precede it). Incremental checkpoints pass the
  /// oldest lsn recovery may still need — the begin lsn of the oldest
  /// transaction spanning the checkpoint. 0 deletes every older segment.
  /// This is the only place a segment closes.
  Status RotateAndTruncate(uint64_t retain_from_lsn = 0);

  /// Syncs and closes the live segment. The Wal is unusable afterwards.
  /// Destroying a Wal without Close is the crash path: nothing is synced.
  Status Close();

  /// Allocates a pseudo-transaction id for a multi-record atomic group
  /// logged outside the transaction manager (workspace checkin, generic
  /// rebinding). The group brackets its records with Begin/Commit like an
  /// explicit transaction, so replay applies it all-or-nothing. Ids come
  /// from a high range that the transaction manager's counter can never
  /// reach within one log generation (checkpoint-on-open confines every
  /// generation to a single process).
  uint64_t AllocateGroupTxn();

  uint64_t last_lsn() const;
  const std::string& dir() const { return dir_; }
  WalStats stats() const;

  /// Trace context captured from the committing thread at the most recent
  /// commit point (invalid while tracing is off). The replication shipper
  /// stamps this into the MANIFEST so a follower's rebuild span links back
  /// to the originating commit's distributed trace.
  obs::TraceContext last_commit_context() const;

 private:
  Wal(std::string dir, WalOptions options, uint64_t next_lsn);

  Status OpenSegmentLocked(uint64_t start_lsn);
  Result<uint64_t> AppendLocked(std::unique_lock<std::mutex>& lock,
                                const Record& record);
  /// Appends a commit marker and counts the commit point: the one place
  /// commits are counted, shared by AppendCommit and AppendCommitRecord.
  Result<uint64_t> AppendCommitLocked(std::unique_lock<std::mutex>& lock,
                                      const Record& record);
  /// The commit-time sync-policy switch for the commit point at
  /// `commit_lsn`: FinishCommit's body.
  Status CommitPolicyLocked(std::unique_lock<std::mutex>& lock,
                            uint64_t commit_lsn);
  /// The one fsync path. Returns once synced_lsn_ covers `target`, or the
  /// sticky error once an fsync failed first. While another caller's fsync
  /// is in flight it waits for it; otherwise it leads: captures the live
  /// file and the last appended lsn, drops `lock` for the fsync, then
  /// publishes synced_lsn_ and wakes the waiters.
  Status SyncThroughLocked(std::unique_lock<std::mutex>& lock,
                           uint64_t target);

  const std::string dir_;
  const WalOptions options_;

  /// The counters WalStats reports, plus the fsync/group-commit timings.
  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  obs::Counter* m_appends_;
  obs::Counter* m_commits_;
  obs::Counter* m_fsyncs_;
  obs::Counter* m_bytes_;
  obs::Counter* m_segments_;
  obs::Histogram* m_fsync_us_;
  obs::Histogram* m_commits_per_fsync_;
  obs::Histogram* m_append_us_;
  uint64_t commits_since_fsync_ = 0;

  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> file_;
  uint64_t next_lsn_;
  uint64_t segment_start_lsn_ = 0;
  uint64_t synced_lsn_ = 0;
  size_t unsynced_commits_ = 0;
  std::chrono::steady_clock::time_point oldest_unsynced_commit_{};
  bool closed_ = false;
  uint64_t next_group_txn_ = (1ull << 62) + 1;
  obs::TraceContext last_commit_ctx_;  // guarded by mu_

  // Group commit: the leader's fsync runs outside mu_.
  std::condition_variable sync_done_cv_;    // leader finished an fsync
  std::condition_variable rotate_done_cv_;  // appenders blocked by rotation
  bool sync_in_flight_ = false;
  bool rotating_ = false;
  Status sync_error_;  // sticky: first failed fsync poisons the log
};

}  // namespace wal
}  // namespace caddb

#endif  // CADDB_WAL_WAL_H_
