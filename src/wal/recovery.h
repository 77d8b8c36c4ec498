#ifndef CADDB_WAL_RECOVERY_H_
#define CADDB_WAL_RECOVERY_H_

#include <cstdint>
#include <string>

#include "util/result.h"
#include "wal/wal.h"

namespace caddb {

class Database;

namespace wal {

/// Durability knobs for Database::Open.
struct DurabilityOptions {
  /// Sync policy and obs bundle for the log opened after recovery.
  WalOptions wal;
  /// When non-zero, RecoveryReport::fingerprint_at captures the running
  /// applied-record fingerprint as of this lsn (see the report field). The
  /// replication follower uses it to prove that a re-replayed log prefix
  /// is byte-identical to what it applied last time.
  uint64_t fingerprint_lsn = 0;
  /// Read-only open: the page file is opened without write access, healed
  /// checkpoint page images are served from a read overlay instead of being
  /// written back, and no stale-temp-file GC runs.
  bool read_only = false;
  /// Buffer-pool capacity in 8 KiB pages for the paged object store.
  size_t buffer_pool_pages = 256;
  /// When non-zero, after each auto-committed mutation the store trims
  /// clean resident objects down to this budget (demand paging brings them
  /// back on access). 0 = keep everything resident.
  size_t resident_object_budget = 0;
  /// When non-zero, Database::Open starts a background thread running an
  /// incremental checkpoint every this-many milliseconds. Commits are never
  /// paused by it beyond the short capture critical section.
  uint64_t checkpoint_interval_ms = 0;
};

/// What one recovery pass found and did. Surfaced by `wal status` and the
/// crash-matrix tests.
struct RecoveryReport {
  uint64_t checkpoint_lsn = 0;   // 0 = no checkpoint, replay from lsn 1
  /// Log generation of the loaded checkpoint (0 with no checkpoint).
  /// Database::Open writes its fresh checkpoint with
  /// generation + 1, so every process lifetime is its own generation.
  uint64_t generation = 0;
  std::string checkpoint_path;
  uint64_t segments_scanned = 0;
  uint64_t records_scanned = 0;  // valid frames seen (incl. pre-checkpoint)
  uint64_t records_applied = 0;  // operations re-executed
  uint64_t txns_committed = 0;   // explicit transactions replayed
  uint64_t txns_discarded = 0;   // uncommitted or aborted transactions
  /// Last lsn of the trustworthy log prefix (checkpoint lsn when the log
  /// holds nothing newer). The reopened Wal continues at last_lsn + 1.
  uint64_t last_lsn = 0;
  /// Empty when every segment ended exactly on a frame boundary; otherwise
  /// a description of the torn/corrupt tail that ended replay.
  std::string tail_error;
  bool fsck_ran = false;
  bool repaired = false;
  /// Chained CRC32C over the (lsn, payload) of every record this pass
  /// applied, in lsn order. Two recoveries that applied the same committed
  /// operations from the same bytes agree on it; two histories that
  /// diverged do not (with CRC32C confidence). Records replay skips
  /// (uncommitted or aborted transactions, checkpoint-covered lsns) never
  /// enter it.
  uint32_t applied_fingerprint = 0;
  /// Separate fingerprint chain over the records a recovery cut at
  /// DurabilityOptions::fingerprint_lsn would have applied: record lsn
  /// *and* its transaction's commit lsn both at or before the watermark.
  /// Equals the applied_fingerprint an earlier recovery reported when its
  /// last_lsn was the watermark — unless the log's history changed under
  /// it. (0 when the option is unset or nothing qualified.)
  uint32_t fingerprint_at = 0;

  std::string ToString() const;
};

/// Rebuilds `db` (which must be empty) from the durability directory `dir`:
/// loads the newest valid checkpoint, then replays every committed
/// transaction and auto-committed operation from the log segments in lsn
/// order, stopping at the first torn or corrupt frame. Replay goes through
/// the public Database API, so every schema/domain/binding/cycle invariant
/// is re-validated; surrogates are re-assigned and remapped exactly like a
/// dump load. Does not open a Wal — Database::Open does that afterwards,
/// always into a fresh segment. Reports into `db`'s obs bundle.
Result<RecoveryReport> Recover(const std::string& dir, Database* db,
                               const DurabilityOptions& options);

}  // namespace wal
}  // namespace caddb

#endif  // CADDB_WAL_RECOVERY_H_
