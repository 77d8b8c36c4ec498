#ifndef CADDB_WAL_LOG_IO_H_
#define CADDB_WAL_LOG_IO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace caddb {
namespace wal {

/// Byte-level frame format of a log segment, shared by writer and reader:
///
///   u32 LE  payload length
///   u32 LE  masked CRC32C over (lsn bytes || payload)
///   u64 LE  log sequence number
///   payload bytes (a Record::Encode() string)
///
/// A frame is valid only when it is complete *and* its CRC matches; the
/// reader stops at the first frame that is torn (short header/payload) or
/// corrupt (CRC mismatch) — everything before that prefix is trustworthy,
/// everything after it is noise from a crash.
constexpr size_t kFrameHeaderBytes = 16;
constexpr size_t kMaxFramePayload = 16u << 20;  // 16 MiB sanity bound

/// Append-only file handle. Append buffers in the OS (write(2)); Sync makes
/// everything appended so far durable (fsync(2)). Implementations must be
/// safe to destroy without Close (the destructor closes, without syncing —
/// exactly a crash).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const std::string& data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Opens `path` for appending, truncating any previous content (segments
/// are never reopened for writing; recovery always starts a fresh one).
Result<std::unique_ptr<WritableFile>> OpenWritableFile(
    const std::string& path);

/// How AtomicWriteFile opens its temp file (a fault-injection seam for
/// tests).
using FileFactory =
    std::function<Result<std::unique_ptr<WritableFile>>(const std::string&)>;

/// Fault-injection wrapper simulating a crash at an arbitrary byte offset:
/// bytes up to `fail_after` reach the underlying file, everything beyond is
/// silently dropped — including partial suffixes of a single Append (a torn
/// write) and all later Syncs. The caller keeps getting OK, like a process
/// whose kernel acknowledged writes that never hit the platter; recovery
/// must cope with the resulting truncated, possibly mid-frame log.
/// Sync may run concurrently with Append (the WAL's group-commit leader
/// fsyncs outside the log mutex); Appends are serialized by the caller.
class FailpointFile : public WritableFile {
 public:
  FailpointFile(std::unique_ptr<WritableFile> base, uint64_t fail_after)
      : base_(std::move(base)), budget_(fail_after) {}

  Status Append(const std::string& data) override;
  Status Sync() override;
  Status Close() override;

  /// True once at least one byte has been dropped.
  bool triggered() const { return triggered_.load(); }

 private:
  std::unique_ptr<WritableFile> base_;
  uint64_t budget_;
  std::atomic<bool> triggered_{false};
};

// ---- Frame encoding / decoding ----

/// Serializes one frame (header + payload) for `lsn`.
std::string EncodeFrame(uint64_t lsn, const std::string& payload);

struct Frame {
  uint64_t lsn = 0;
  std::string payload;
  /// Byte offset one past this frame within its segment — the "record
  /// boundary" the fault-injection matrix cuts at.
  uint64_t end_offset = 0;
};

struct SegmentContents {
  std::vector<Frame> frames;
  /// Empty when the segment ends exactly on a frame boundary; otherwise a
  /// human-readable description of the torn/corrupt tail (offset + cause).
  std::string tail_error;
  uint64_t bytes_scanned = 0;
};

/// Decodes every valid frame of `data` (one segment's bytes) in order,
/// stopping at the first torn or corrupt frame.
SegmentContents DecodeFrames(const std::string& data);

/// Scans every byte offset >= `offset` for a complete, CRC-valid frame.
/// Guard behind the disk verifier's torn-tail truncation repair: a tail is
/// provably crash debris only when nothing decodable survives past the
/// damage — a valid frame there means mid-file corruption stranded real
/// records, which truncation would destroy.
bool HasValidFrameAfter(const std::string& data, size_t offset);

/// Reads a whole file into memory. kNotFound only when it truly does not
/// exist (ENOENT); every other open failure — permissions, a directory in
/// the file's place, I/O errors — is kInternal, so callers (notably the
/// replication follower probing its primary) never mistake a broken file
/// for an absent one.
Result<std::string> ReadFileToString(const std::string& path);

/// Durably writes `data` to `path`: temp file in the same directory, write,
/// fsync, rename over `path`, fsync the directory. The atomic-publish
/// primitive behind checkpoints. On any failure the temp file is unlinked,
/// never leaked; `factory` overrides how the temp file is opened (fault
/// injection in tests).
Status AtomicWriteFile(const std::string& path, const std::string& data,
                       const FileFactory& factory = nullptr);

/// Removes stale "*.tmp" leftovers in `dir` — debris of AtomicWriteFile
/// calls cut down by a crash between create and rename. Run by Database
/// open recovery on the database directory; never touches non-tmp names.
/// Returns the number removed.
Result<size_t> RemoveStaleTempFiles(const std::string& dir);

/// fsync(2) on a directory so renames/creates within it are durable.
Status SyncDir(const std::string& dir);

}  // namespace wal
}  // namespace caddb

#endif  // CADDB_WAL_LOG_IO_H_
