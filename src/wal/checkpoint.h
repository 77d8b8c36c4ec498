#ifndef CADDB_WAL_CHECKPOINT_H_
#define CADDB_WAL_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace caddb {
namespace wal {

/// Checkpoint files: an incremental database snapshot covering every log
/// record up to and including an lsn, published atomically.
///
/// On-disk format (version 3, the only one written or read):
///
///   caddb-checkpoint 3 <lsn> <generation> <body-bytes> <crc32c-hex>\n
///   <body, see CheckpointData>
///
/// `generation` numbers log generations: every Database::Open writes a
/// fresh checkpoint with the loaded generation + 1, so one generation never
/// mixes the surrogate/transaction id spaces of two processes, and a
/// replication follower can detect a stale or rewound primary by a
/// generation that moves backwards. Files of the retired dump-based
/// versions 1 and 2 are rejected with an error naming their version.
///
/// The CRC is the masked CRC32C of the body, so a checkpoint torn by a
/// crash during publication is detected and skipped in favour of the
/// previous one (writes go through a temp file + rename, so a torn final
/// file should be impossible on POSIX — the CRC is defence in depth
/// against partial copies and bit rot).
///
/// This layer deliberately knows nothing about Database; the engine hands
/// it the captured payload (core/database.cc composes the capture,
/// WriteCheckpoint and Wal::RotateAndTruncate).

/// `checkpoint-<lsn, 16 hex digits>.db`.
std::string CheckpointFileName(uint64_t lsn);

struct CheckpointFileInfo {
  std::string path;
  uint64_t lsn = 0;
};

/// Checkpoint files of `dir` sorted by covered lsn (ascending). Files with
/// other names are ignored.
std::vector<CheckpointFileInfo> ListCheckpoints(const std::string& dir);

/// Checkpoint payload. Instead of a full database dump, a checkpoint
/// carries
///
///   - `meta`: the non-paged state (schema DDL, class registry, version
///     graph, next-surrogate counter) as persist meta-snapshot text, and
///   - `pages`: the serialized images of every page dirtied since the last
///     checkpoint — a double-write journal. The engine publishes the
///     checkpoint file first and only then writes these pages into
///     pages.db in place, so a crash mid-phase-two tears nothing that the
///     images cannot heal on the next open.
///   - `replay_from`: the begin lsn of the oldest transaction still active
///     at capture; log records in (replay_from, lsn] whose transaction
///     committed after `lsn` must be replayed even though they precede the
///     checkpoint lsn. 0 when no transaction spanned the checkpoint.
///
/// On-disk body:
///
///   replayfrom <lsn>\n
///   meta <byte-count>\n<meta bytes>
///   pages <count>\n
///   page <id> <byte-count>\n<raw page image>   (repeated)
struct CheckpointData {
  std::string meta;
  uint64_t replay_from = 0;
  std::vector<std::pair<uint32_t, std::string>> pages;
};

/// Atomically publishes a checkpoint covering `lsn` in log generation
/// `generation` (temp file + fsync + rename + directory fsync), then
/// deletes every older checkpoint file. `lsn` may be 0 for a checkpoint of
/// a database with an empty log.
Status WriteCheckpoint(const std::string& dir, uint64_t lsn,
                       uint64_t generation, const CheckpointData& data);

struct LoadedCheckpoint {
  /// 0 when no checkpoint exists (recovery replays the log from lsn 1).
  uint64_t lsn = 0;
  /// Log generation the checkpoint was written in (0 for fresh
  /// directories).
  uint64_t generation = 0;
  /// Meta-snapshot text, dirty-page images, and the oldest lsn replay may
  /// still need (see CheckpointData).
  std::string meta;
  uint64_t replay_from = 0;
  std::map<uint32_t, std::string> pages;
  /// Empty for a fresh directory with no checkpoint at all.
  std::string path;

  /// Newest lsn the log scan may skip wholesale. A checkpoint captured
  /// while a transaction was in flight masked that transaction's writes
  /// with before-images; its records — which may start before `lsn` — must
  /// be replayed if it committed after, so the floor drops to one below
  /// `replay_from`. Recovery and the offline verifier share this rule.
  uint64_t replay_floor() const {
    return replay_from != 0 && replay_from <= lsn ? replay_from - 1 : lsn;
  }
};

/// Parses and CRC-checks one checkpoint file. Every failure is a parse
/// error naming the file and the defect — the offline disk verifier audits
/// each retained checkpoint individually through this, while normal
/// recovery only cares about the newest usable one.
Result<LoadedCheckpoint> ReadCheckpointFile(const CheckpointFileInfo& info);

/// Loads the newest checkpoint whose header parses and whose body matches
/// its CRC, skipping (but not deleting) invalid ones. A directory with no
/// usable checkpoint yields {lsn = 0, path = ""} — not an error.
Result<LoadedCheckpoint> ReadNewestCheckpoint(const std::string& dir);

}  // namespace wal
}  // namespace caddb

#endif  // CADDB_WAL_CHECKPOINT_H_
