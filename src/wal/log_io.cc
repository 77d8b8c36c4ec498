#include "wal/log_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "wal/crc32c.h"

namespace caddb {
namespace wal {

namespace {

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

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
  PutU64(&lsn_bytes, lsn);
  uint32_t crc = Crc32c(lsn_bytes.data(), lsn_bytes.size());
  crc = Crc32cExtend(crc, payload.data(), payload.size());

  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32cMask(crc));
  frame += lsn_bytes;
  frame += payload;
  return frame;
}

SegmentContents DecodeFrames(const std::string& data) {
  SegmentContents out;
  size_t pos = 0;
  auto torn = [&](const std::string& why) {
    std::ostringstream msg;
    msg << why << " at offset " << pos;
    out.tail_error = msg.str();
  };
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeaderBytes) {
      torn("torn frame header");
      break;
    }
    uint32_t len = GetU32(data.data() + pos);
    uint32_t stored_crc = Crc32cUnmask(GetU32(data.data() + pos + 4));
    uint64_t lsn = GetU64(data.data() + pos + 8);
    if (len > kMaxFramePayload) {
      torn("implausible frame length (corrupt header)");
      break;
    }
    if (data.size() - pos - kFrameHeaderBytes < len) {
      torn("torn frame payload");
      break;
    }
    uint32_t crc = Crc32c(data.data() + pos + 8, 8);
    crc = Crc32cExtend(crc, data.data() + pos + kFrameHeaderBytes, len);
    if (crc != stored_crc) {
      torn("frame checksum mismatch");
      break;
    }
    Frame frame;
    frame.lsn = lsn;
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
    uint32_t len = GetU32(data.data() + pos);
    if (len > kMaxFramePayload) continue;
    if (data.size() - pos - kFrameHeaderBytes < len) continue;
    uint32_t stored_crc = Crc32cUnmask(GetU32(data.data() + pos + 4));
    uint32_t crc = Crc32c(data.data() + pos + 8, 8);
    crc = Crc32cExtend(crc, data.data() + pos + kFrameHeaderBytes, len);
    if (crc == stored_crc) return true;
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
