#ifndef CADDB_REPLICATION_SHIPPER_H_
#define CADDB_REPLICATION_SHIPPER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "fault/failpoint.h"
#include "obs/observability.h"
#include "replication/manifest.h"
#include "util/result.h"

namespace caddb {

class Database;

namespace replication {

/// What one ShipNow did.
struct ShipmentReport {
  uint64_t seq = 0;          // manifest seq published (0 when none was)
  uint64_t shipped_lsn = 0;  // newest lsn the manifest makes reachable
  uint64_t files_copied = 0;
  uint64_t bytes_copied = 0;
  uint64_t files_healed = 0;   // replica copies that differed and were redone
  uint64_t files_deleted = 0;  // stale replica files garbage-collected
  /// The transport fault the `replication.ship` failpoint injected
  /// (kOff when the attempt shipped clean).
  fault::ActionKind fault = fault::ActionKind::kOff;
};

/// Primary-side log shipping: copies the newest checkpoint, every closed
/// segment, and the live tail segment's valid frame prefix into a replica
/// directory, then atomically publishes a Manifest describing them. Every
/// copy is idempotent and self-healing — a file already present with the
/// right size and CRC is skipped, a wrong one (previous torn/corrupted
/// shipment) is re-copied — so a clean ShipNow converges the replica
/// directory no matter what earlier attempts did to it. Files no longer
/// referenced (truncated segments, superseded checkpoints) are deleted
/// after the new manifest is durable.
///
/// Call ShipNow() for time-based or manual shipping (`ship` in the shell;
/// replication::AutoShipper on a timer). Single-threaded like the Database
/// it serves.
class Shipper {
 public:
  /// `db` must outlive the Shipper and have been opened durably.
  Shipper(Database* db, std::string replica_dir);

  /// One shipment attempt. Each attempt is one hit of the
  /// `replication.ship` failpoint (arm it with `--skip=N --times=1` to hit
  /// attempt N+1); an injected transport fault is reported in the
  /// ShipmentReport, not as an error — the transport losing a shipment is
  /// not the shipper failing.
  Result<ShipmentReport> ShipNow();

  uint64_t attempts() const { return attempts_; }
  const std::string& replica_dir() const { return replica_dir_; }

 private:
  Database* db_;
  const std::string replica_dir_;
  /// The primary database's bundle (a private one when db is null).
  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  obs::Counter* m_attempts_;
  obs::Counter* m_files_;
  obs::Counter* m_bytes_;
  obs::Histogram* m_ship_us_;
  uint64_t attempts_ = 0;
  /// First ShipNow seeds attempts_ from the replica's existing manifest so
  /// a restarted primary's seq keeps ascending past the old one's.
  bool seq_seeded_ = false;
  /// A kReorder fault stashes the withheld manifest here; the next attempt
  /// re-publishes it after its own, simulating out-of-order delivery.
  std::string reorder_stash_;
};

}  // namespace replication
}  // namespace caddb

#endif  // CADDB_REPLICATION_SHIPPER_H_
