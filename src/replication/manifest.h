#ifndef CADDB_REPLICATION_MANIFEST_H_
#define CADDB_REPLICATION_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/result.h"

namespace caddb {
namespace replication {

/// The replica directory's table of contents, published atomically by the
/// Shipper after every shipment (temp + rename, like a checkpoint). Text
/// format, one record per line:
///
///   caddb-replica 1 <seq> <generation>
///   trace <trace-id> <span-id>
///   checkpoint <file> <lsn> <bytes> <crc32c-hex>
///   pagefile <file> <bytes> <crc32c-hex>
///   segment <file> <start-lsn> <last-lsn> <bytes> <crc32c-hex> <closed|tail>
///   end <crc32c-hex>
///
/// The optional `trace` record is the distributed-trace link: the context
/// of the last commit the shipment covers (captured by the Wal, stamped by
/// the Shipper). A follower parents its rebuild span on it, so a trace
/// tree started in a client spans primary commit → ship → rebuild.
/// Old manifests simply omit the line; the end CRC covers it when present.
///
/// `seq` increases with every publication — a follower that has applied
/// seq S ignores any manifest with seq <= S, which is what makes reordered
/// or duplicated publications harmless. `generation` is the primary's log
/// generation (see wal/checkpoint.h). Segment `bytes`/`crc` describe the
/// *shipped* byte prefix, which for the live tail segment is its valid
/// frame prefix at shipping time, not the whole file. The `end` line's CRC
/// covers every preceding byte of the manifest, so a partially transferred
/// manifest is detected even on transports without atomic rename.
constexpr char kManifestFileName[] = "MANIFEST";

struct ManifestCheckpoint {
  std::string file;
  uint64_t lsn = 0;
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

/// The primary's page file (pages.db), shipped whole whenever the primary's
/// directory holds one — its object payloads live here, not in the
/// checkpoint file, so a follower cannot replay without it. The shipper snapshots it under the primary's
/// checkpoint pause so the (checkpoint, pagefile) pair is mutually
/// consistent.
struct ManifestPageFile {
  std::string file;
  uint64_t bytes = 0;
  uint32_t crc = 0;
  bool present = false;
};

struct ManifestSegment {
  std::string file;
  uint64_t start_lsn = 0;
  uint64_t last_lsn = 0;  // last lsn within the shipped prefix
  uint64_t bytes = 0;     // shipped prefix length, not on-primary file size
  uint32_t crc = 0;       // over the shipped prefix
  bool tail = false;      // still the primary's live segment when shipped
};

struct Manifest {
  uint64_t seq = 0;
  uint64_t generation = 0;
  /// Originating-commit trace context (invalid when the primary traced
  /// nothing — the line is omitted from the encoding).
  obs::TraceContext trace;
  ManifestCheckpoint checkpoint;
  ManifestPageFile pagefile;
  std::vector<ManifestSegment> segments;

  /// Newest lsn this manifest makes reachable.
  uint64_t shipped_lsn() const {
    return segments.empty() ? checkpoint.lsn : segments.back().last_lsn;
  }

  std::string Encode() const;
  /// Rejects bad magic/version, malformed lines and a mismatched end CRC
  /// (all kParseError — the follower treats that as a transient transfer
  /// problem, not divergence).
  static Result<Manifest> Decode(const std::string& text);

  /// Structural soundness of a decoded manifest: segments ordered and
  /// seam-continuous, first segment anchored at most one lsn past the
  /// checkpoint, only the final segment marked tail. A violation is real
  /// divergence territory (CAD204) — the primary published nonsense — so
  /// it is separate from Decode's transient errors.
  Status Validate() const;
};

}  // namespace replication
}  // namespace caddb

#endif  // CADDB_REPLICATION_MANIFEST_H_
