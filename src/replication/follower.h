#ifndef CADDB_REPLICATION_FOLLOWER_H_
#define CADDB_REPLICATION_FOLLOWER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/database.h"
#include "replication/manifest.h"
#include "util/result.h"
#include "wal/recovery.h"

namespace caddb {
namespace replication {

struct FollowerOptions {
  /// Per-file read attempts before a Poll gives up with kUnavailable.
  uint64_t max_attempts = 5;
  /// Exponential backoff between attempts: initial doubles up to max.
  uint64_t initial_backoff_us = 1000;
  uint64_t max_backoff_us = 64000;
  /// Jitter fraction (0..1) subtracted uniformly from each backoff delay:
  /// an attempt sleeps in [backoff*(1-jitter), backoff]. A fleet of
  /// followers that all lost the same shipment would otherwise retry in
  /// lockstep against the same transport. 0 restores the exact schedule
  /// (tests that assert precise delays pin it).
  double backoff_jitter = 0.5;
  /// Uniform [0,1) source for the jitter; defaults to a per-follower
  /// mt19937. Injectable so tests can pin the draw.
  std::function<double()> jitter_source;
  /// Staging directory for rebuilds; empty means `<replica_dir>/.staged`.
  /// Multiple followers fanning out from one published replica tree must
  /// each stage somewhere distinct — two rebuilds sharing a staging
  /// directory would tear each other's files mid-replay.
  std::string staged_dir;
  /// When non-zero, a read whose wall time exceeds this counts as a failed
  /// attempt even if it eventually returned bytes (a response that arrives
  /// after the deadline is as good as lost).
  uint64_t attempt_timeout_us = 0;
  /// Injectable I/O for tests: file reads (default wal::ReadFileToString),
  /// backoff sleeps (default actually sleeping) and the clock behind the
  /// per-attempt timeout (default steady_clock microseconds).
  std::function<Result<std::string>(const std::string&)> file_reader;
  std::function<void(uint64_t)> sleeper;
  std::function<uint64_t()> clock_us;
  /// Recovery options for each rebuild and for promotion (fsck on by
  /// default — a replica that replays into an inconsistent store must not
  /// serve it).
  wal::DurabilityOptions durability;
  /// Metrics/trace bundle for the follower AND every database it rebuilds
  /// (not owned; must outlive the follower). Null falls back to
  /// durability.wal.obs, then to a private bundle (obs::SharedOrOwned).
  obs::Observability* obs = nullptr;
};

enum class FollowerState {
  kNeverSynced,  // no manifest applied yet
  kFollowing,    // applying shipped state as it arrives
  kQuarantined,  // divergence detected; refuses to apply anything further
  kPromoted,     // Promote() succeeded; this follower is finished
};

const char* FollowerStateName(FollowerState state);

/// What one Poll did.
struct PollResult {
  bool advanced = false;      // a new manifest was applied
  uint64_t manifest_seq = 0;  // last applied manifest seq
  uint64_t replay_lsn = 0;    // last lsn replayed into db()
  uint64_t read_attempts = 0; // file-read attempts this poll spent
};

/// Replica-side log shipping: tails the replica directory's MANIFEST and
/// materializes each new shipment as a read-only Database.
///
/// Each applied manifest is a *full rebuild*: the follower copies the
/// CRC-validated byte prefixes into `<replica>/.staged/` and replays them
/// with wal::Recover from scratch. Incremental replay on top of the
/// previous state would be unsound — the previous rebuild discarded
/// transactions that were uncommitted at its cut point, and their commit
/// markers may arrive in the next shipment. Rebuilds are what make
/// catch-up after falling behind a checkpoint truncation automatic: the
/// new checkpoint is simply the next manifest's anchor.
///
/// Failure handling, in increasing severity:
///  - Transient: unreadable/torn/CRC-mismatched files (a shipment still in
///    flight, a dropped or corrupted transfer). Retried with capped
///    exponential backoff and per-attempt timeouts; a poll that exhausts
///    its attempts returns kUnavailable and the *previous* database stays
///    served. Never quarantines.
///  - Stale: a manifest whose seq is not beyond the last applied one
///    (duplicate or reordered publication). Ignored.
///  - Divergence: the primary's history is no longer the history this
///    follower applied. Detected by generation regression (CAD201),
///    checkpoint-anchor regression within a generation (CAD202), a
///    replayed-prefix fingerprint mismatch or shrinking prefix (CAD203),
///    a structurally inconsistent manifest (CAD204), or CRC-valid state
///    that fails replay/fsck (CAD205). The follower quarantines itself:
///    the diagnostic is persisted to `<replica>/QUARANTINE`, every later
///    Poll/Promote refuses, and the divergent data is never applied.
class Follower {
 public:
  explicit Follower(std::string replica_dir, FollowerOptions options = {});

  /// One catch-up cycle: read the manifest, fetch + validate what it
  /// references, rebuild. No new manifest is not an error (advanced stays
  /// false).
  Result<PollResult> Poll();

  /// Turns a caught-up replica into a writable primary: a final Poll
  /// (transient failures ignored — the old primary is typically dead), then
  /// a full Database::Open over the staged state, which replays, runs
  /// fsck, publishes a fresh checkpoint and starts a new log generation.
  /// The returned database's durability directory is `<replica>/.staged`.
  /// Refuses for a quarantined or never-synced replica. The follower is
  /// finished afterwards (state kPromoted).
  Result<std::unique_ptr<Database>> Promote();

  /// The read-only database of the last applied manifest (null before the
  /// first successful Poll and after Promote). Replaced wholesale by every
  /// applying Poll — callers must re-fetch after each Poll, not cache.
  Database* db() { return db_.get(); }

  /// Operator workflow for a quarantined replica (`replica reseed` in the
  /// shell): accepts the primary's *current* history as the new truth and
  /// re-stages from scratch. Forgets the divergence baseline (seq,
  /// generation, anchor, fingerprint), clears the in-memory quarantine and
  /// runs one full Poll; only a successful rebuild deletes the persisted
  /// QUARANTINE verdict. If the rebuild does not complete (transport down,
  /// no manifest, or a fresh divergence), the original verdict is restored
  /// — a reseed that went nowhere must not silently unlock the replica.
  /// Fails with kFailedPrecondition when the replica is not quarantined.
  Result<PollResult> Reseed();

  FollowerState state() const { return state_; }
  /// "CAD201".."CAD205" once quarantined, empty otherwise.
  const std::string& quarantine_code() const { return quarantine_code_; }
  const std::string& quarantine_reason() const { return quarantine_reason_; }
  ReplicaInfo replica_info() const;
  const std::string& replica_dir() const { return replica_dir_; }
  const std::string& staged_dir() const { return staged_dir_; }

 private:
  /// Reads `path`, retrying transient failures (including `validate`
  /// rejections and over-deadline responses) with capped exponential
  /// backoff. Accumulates attempts into `result->read_attempts`.
  Result<std::string> ReadWithRetry(
      const std::string& path,
      const std::function<Status(const std::string&)>& validate,
      PollResult* result);

  /// Enters quarantine: persists the diagnostic, flips the state, and
  /// returns the kFailedPrecondition every later call reports.
  Status Quarantine(const std::string& code, const std::string& reason);

  const std::string replica_dir_;
  const std::string staged_dir_;
  FollowerOptions options_;

  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  obs::Counter* m_polls_;
  obs::Counter* m_rebuilds_;
  obs::Counter* m_retries_;
  obs::Counter* m_quarantines_;
  obs::Counter* m_reseeds_;
  obs::Gauge* m_lag_;
  obs::Histogram* m_poll_us_;
  obs::Histogram* m_rebuild_us_;

  std::unique_ptr<Database> db_;
  FollowerState state_ = FollowerState::kNeverSynced;
  std::string quarantine_code_;
  std::string quarantine_reason_;

  // Applied-manifest bookkeeping (the divergence baseline).
  uint64_t last_seq_ = 0;
  uint64_t generation_ = 0;
  uint64_t anchor_lsn_ = 0;    // checkpoint lsn of the applied manifest
  uint64_t replay_lsn_ = 0;    // recovery_report().last_lsn of the rebuild
  uint32_t fingerprint_ = 0;   // applied_fingerprint of the rebuild
  uint64_t shipped_lsn_ = 0;
};

}  // namespace replication
}  // namespace caddb

#endif  // CADDB_REPLICATION_FOLLOWER_H_
