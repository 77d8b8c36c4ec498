#include "wal/log_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/bytes.h"
#include "wal/crc32c.h"

namespace caddb {
namespace wal {

using bytes::AppendU32;
using bytes::AppendU64;
using bytes::LoadU32;
using bytes::LoadU64;

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return InternalError(what + " '" + path + "': " + std::strerror(errno));
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    // Destruction without Close is the crash path: no sync, just release
    // the descriptor.
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const std::string& data) override {
    if (fd_ < 0) return InternalError("append to closed file '" + path_ + "'");
    size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("write to", path_);
      }
      done += static_cast<size_t>(n);
    }
    return OkStatus();
  }

  Status Sync() override {
    if (fd_ < 0) return InternalError("sync of closed file '" + path_ + "'");
    if (::fsync(fd_) != 0) return Errno("fsync of", path_);
    return OkStatus();
  }

  Status Close() override {
    if (fd_ < 0) return OkStatus();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return Errno("close of", path_);
    return OkStatus();
  }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> OpenWritableFile(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return Errno("cannot open", path);
  return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
}

Status FailpointFile::Append(const std::string& data) {
  if (triggered_ || budget_ == 0) {
    triggered_ = true;
    return OkStatus();  // the write is acknowledged but lost
  }
  if (data.size() <= budget_) {
    budget_ -= data.size();
    return base_->Append(data);
  }
  // Torn write: only the prefix that fits the budget survives.
  std::string prefix = data.substr(0, budget_);
  budget_ = 0;
  triggered_ = true;
  return base_->Append(prefix);
}

Status FailpointFile::Sync() {
  if (triggered_) return OkStatus();  // ack without durability — the lie
  return base_->Sync();
}

Status FailpointFile::Close() { return base_->Close(); }

std::string EncodeFrame(uint64_t lsn, const std::string& payload) {
  std::string lsn_bytes;
  AppendU64(&lsn_bytes, lsn);
  uint32_t crc = Crc32c(lsn_bytes.data(), lsn_bytes.size());
  crc = Crc32cExtend(crc, payload.data(), payload.size());

  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  AppendU32(&frame, Crc32cMask(crc));
  frame += lsn_bytes;
  frame += payload;
  return frame;
}

namespace {

/// Checks the frame starting at `pos`: nullptr when it is complete and its
/// CRC matches (payload length in *len), else why it is not.
const char* CheckFrame(const std::string& data, size_t pos, uint32_t* len) {
  if (data.size() - pos < kFrameHeaderBytes) return "torn frame header";
  *len = LoadU32(data.data() + pos);
  if (*len > kMaxFramePayload) {
    return "implausible frame length (corrupt header)";
  }
  if (data.size() - pos - kFrameHeaderBytes < *len) {
    return "torn frame payload";
  }
  uint32_t crc = Crc32c(data.data() + pos + 8, 8);
  crc = Crc32cExtend(crc, data.data() + pos + kFrameHeaderBytes, *len);
  if (crc != Crc32cUnmask(LoadU32(data.data() + pos + 4))) {
    return "frame checksum mismatch";
  }
  return nullptr;
}

}  // namespace

SegmentContents DecodeFrames(const std::string& data) {
  SegmentContents out;
  size_t pos = 0;
  while (pos < data.size()) {
    uint32_t len = 0;
    if (const char* why = CheckFrame(data, pos, &len)) {
      out.tail_error = std::string(why) + " at offset " + std::to_string(pos);
      break;
    }
    Frame frame;
    frame.lsn = LoadU64(data.data() + pos + 8);
    frame.payload = data.substr(pos + kFrameHeaderBytes, len);
    pos += kFrameHeaderBytes + len;
    frame.end_offset = pos;
    out.frames.push_back(std::move(frame));
  }
  out.bytes_scanned = pos;
  return out;
}

bool HasValidFrameAfter(const std::string& data, size_t offset) {
  for (size_t pos = offset; pos + kFrameHeaderBytes <= data.size(); ++pos) {
    uint32_t len = 0;
    if (CheckFrame(data, pos, &len) == nullptr) return true;
  }
  return false;
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    // Only a genuinely missing file is NotFound; EACCES, EISDIR, EIO and
    // friends are real failures a caller must not paper over as "empty".
    if (errno == ENOENT) return NotFound("cannot open '" + path + "'");
    return Errno("cannot open", path);
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Errno("read of", path);
      ::close(fd);
      return s;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status AtomicWriteFile(const std::string& path, const std::string& data,
                       const FileFactory& factory) {
  const std::string tmp = path + ".tmp";
  Status written = [&]() -> Status {
    CADDB_ASSIGN_OR_RETURN(
        std::unique_ptr<WritableFile> file,
        factory ? factory(tmp) : OpenWritableFile(tmp));
    CADDB_RETURN_IF_ERROR(file->Append(data));
    CADDB_RETURN_IF_ERROR(file->Sync());
    CADDB_RETURN_IF_ERROR(file->Close());
    return OkStatus();
  }();
  std::error_code ec;
  if (!written.ok()) {
    // Never leak the temp file: a half-written "<path>.tmp" left behind
    // would survive forever (nothing else ever cleans it up).
    std::filesystem::remove(tmp, ec);
    return written;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    Status failed = InternalError("rename '" + tmp + "' -> '" + path +
                                  "': " + ec.message());
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return failed;
  }
  return SyncDir(std::filesystem::path(path).parent_path().string());
}

Result<size_t> RemoveStaleTempFiles(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  size_t removed = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= 4 || name.substr(name.size() - 4) != ".tmp") continue;
    std::error_code rm;
    if (fs::remove(entry.path(), rm) && !rm) ++removed;
  }
  if (ec) {
    // A directory that does not exist yet holds no debris; Open creates
    // it right after this sweep.
    if (ec == std::errc::no_such_file_or_directory) return size_t{0};
    return InternalError("cannot scan '" + dir + "' for stale temp files: " +
                         ec.message());
  }
  if (removed > 0) CADDB_RETURN_IF_ERROR(SyncDir(dir));
  return removed;
}

Status SyncDir(const std::string& dir) {
  std::string target = dir.empty() ? "." : dir;
  int fd = ::open(target.c_str(), O_RDONLY);
  if (fd < 0) return Errno("cannot open directory", target);
  Status s = OkStatus();
  if (::fsync(fd) != 0) {
    // Some filesystems refuse fsync on directories; that only weakens
    // rename durability, never correctness of what is read back.
    if (errno != EINVAL && errno != EROFS) s = Errno("fsync of", target);
  }
  ::close(fd);
  return s;
}

}  // namespace wal
}  // namespace caddb
