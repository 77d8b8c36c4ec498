#include "storage/file_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fault/failpoint.h"

namespace caddb {
namespace storage {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return InternalError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<FileManager>> FileManager::Open(
    const std::string& path, FileManagerOptions options) {
  int flags = options.read_only ? O_RDONLY : (O_RDWR | O_CREAT);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (options.read_only && errno == ENOENT) {
      // A follower staging dir from before its primary ever checkpointed has
      // no page file yet; an empty one (fd -1, zero pages) behaves the same.
      fd = -1;
    } else {
      return Errno("cannot open page file", path);
    }
  }
  uint32_t file_pages = 0;
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      Status s = Errno("cannot stat page file", path);
      ::close(fd);
      return s;
    }
    if (st.st_size % kPageSize != 0) {
      // A torn append crashed mid-page; the partial tail page was never
      // referenced by a published checkpoint, so it is garbage. Round down.
      if (!options.read_only &&
          ::ftruncate(fd, st.st_size - (st.st_size % kPageSize)) != 0) {
        Status s = Errno("cannot trim torn page file", path);
        ::close(fd);
        return s;
      }
    }
    file_pages = static_cast<uint32_t>(st.st_size / kPageSize);
  }
  uint64_t cut_budget = UINT64_MAX;
  fault::FiredAction cut;
  if (!options.read_only && fault::Hit(fault::sites::kStorageFileCut, &cut) &&
      cut.kind == fault::ActionKind::kCut) {
    cut_budget = cut.arg;
  }
  return std::unique_ptr<FileManager>(
      new FileManager(fd, path, options, file_pages, cut_budget));
}

FileManager::~FileManager() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> FileManager::ReadPage(uint32_t id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = overlay_.find(id);
    if (it != overlay_.end()) return it->second;
  }
  std::string out(kPageSize, '\0');
  if (fd_ < 0) return out;  // empty read-only file: all holes
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = ::pread(fd_, &out[done], kPageSize - done,
                        static_cast<off_t>(id) * kPageSize + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread of page file", path_);
    }
    if (n == 0) break;  // past EOF: remaining bytes stay zero
    done += static_cast<size_t>(n);
  }
  return out;
}

Status FileManager::WritePage(uint32_t id, const std::string& bytes) {
  if (options_.read_only) {
    return FailedPrecondition("page file '" + path_ + "' is read-only");
  }
  if (bytes.size() != kPageSize) {
    return InternalError("page write of " + std::to_string(bytes.size()) +
                         " bytes, want " + std::to_string(kPageSize));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++write_count_;
    // The write makes the page real even if the file write below is torn
    // or dropped by fault injection: the allocator and the startup scan
    // must account for it (a healed checkpoint image may land past the
    // old end of file).
    if (id >= next_page_) next_page_ = id + 1;
  }
  CADDB_RETURN_IF_ERROR(fault::Inject(fault::sites::kStoragePageWrite));
  size_t limit = kPageSize;
  if (cut_armed_) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cut_left_ < kPageSize) {
      limit = static_cast<size_t>(cut_left_);  // torn at the budget
      cut_crossed_ = true;
    }
    cut_left_ -= limit;
    if (limit == 0) return OkStatus();  // acknowledged but lost
  }
  size_t done = 0;
  while (done < limit) {
    ssize_t n = ::pwrite(fd_, bytes.data() + done, limit - done,
                         static_cast<off_t>(id) * kPageSize + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite of page file", path_);
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

Status FileManager::Sync() {
  if (options_.read_only || fd_ < 0) return OkStatus();
  CADDB_RETURN_IF_ERROR(fault::Inject(fault::sites::kStoragePageFlush));
  if (cut_armed_) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cut_crossed_) return OkStatus();  // the durability lie after a cut
  }
  if (::fsync(fd_) != 0) return Errno("fsync of page file", path_);
  return OkStatus();
}

uint32_t FileManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    uint32_t id = *free_.begin();
    free_.erase(free_.begin());
    return id;
  }
  return next_page_++;
}

void FileManager::FreePage(uint32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.insert(id);
}

void FileManager::MarkLive(uint32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.erase(id);
  if (id >= next_page_) next_page_ = id + 1;
}

uint32_t FileManager::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t count = next_page_;
  if (!overlay_.empty()) {
    uint32_t top = overlay_.rbegin()->first + 1;
    if (top > count) count = top;
  }
  return count;
}

void FileManager::SetOverlay(std::map<uint32_t, std::string> overlay) {
  std::lock_guard<std::mutex> lock(mu_);
  overlay_ = std::move(overlay);
  if (!overlay_.empty()) {
    uint32_t top = overlay_.rbegin()->first + 1;
    if (top > next_page_) next_page_ = top;
  }
}

uint64_t FileManager::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_count_;
}

std::set<uint32_t> FileManager::free_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_;
}

Result<uint64_t> FileManager::FileSizeBytes() const {
  if (fd_ < 0) return uint64_t{0};
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Errno("cannot stat page file", path_);
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace storage
}  // namespace caddb
