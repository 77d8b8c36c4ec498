#ifndef CADDB_STORAGE_FILE_MANAGER_H_
#define CADDB_STORAGE_FILE_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "storage/page.h"
#include "util/result.h"

namespace caddb {
namespace storage {

/// Name of the page file inside a database directory.
inline constexpr const char kPageFileName[] = "pages.db";

struct FileManagerOptions {
  /// Read-only opens never create or write the file; combined with an
  /// overlay (SetOverlay) a follower can recover a staged directory without
  /// modifying a single byte of it.
  bool read_only = false;
};

/// Owns the page file: positioned page reads/writes (pread/pwrite), page
/// allocation with an in-memory freelist seeded by the startup scan, and an
/// optional read overlay of checkpoint page images for read-only recovery.
///
/// Faults come from the failpoint registry: `storage.page.write` and
/// `storage.page.flush` fail single writes/syncs cleanly, and
/// `storage.file.cut cut=N`, evaluated once per writable open, is the
/// simulated crash — N bytes of page writes land, the write straddling
/// the budget is torn there (a SIGKILL mid-pwrite), every later write is
/// acknowledged but dropped, and Sync lies once the budget is crossed.
class FileManager {
 public:
  static Result<std::unique_ptr<FileManager>> Open(const std::string& path,
                                                   FileManagerOptions options);
  ~FileManager();

  FileManager(const FileManager&) = delete;
  FileManager& operator=(const FileManager&) = delete;

  /// Reads page `id`: overlay image if present, else the file. Pages inside
  /// the file that were never written read back as zeros (sparse holes).
  Result<std::string> ReadPage(uint32_t id);

  /// Writes exactly kPageSize bytes at page `id`, extending the file as
  /// needed.
  Status WritePage(uint32_t id, const std::string& bytes);

  Status Sync();

  /// Hands out the lowest free page id (freelist first, then file growth).
  uint32_t AllocatePage();

  /// Returns `id` to the freelist.
  void FreePage(uint32_t id);

  /// Startup-scan bookkeeping: marks `id` as occupied so allocation skips it.
  void MarkLive(uint32_t id);

  /// One past the highest page the file (or allocator) knows about.
  uint32_t page_count() const;

  /// Installs checkpoint page images consulted before the file on every
  /// read. Used by read-only recovery; writable recovery writes the images
  /// into the file instead.
  void SetOverlay(std::map<uint32_t, std::string> overlay);

  /// Number of physical page writes so far — sizes the crash-test matrix.
  uint64_t writes() const;

  /// Read-only inspection: the page file's path and a snapshot of the
  /// in-memory freelist (pages returned by FreePage / holes found by the
  /// startup scan). The disk verifier cross-checks its own derived freelist
  /// against this on a live heap.
  const std::string& path() const { return path_; }
  std::set<uint32_t> free_pages() const;

  /// Size of the file on disk in bytes (fstat), 0 for the absent read-only
  /// file. A size that is not a kPageSize multiple is a torn tail page.
  Result<uint64_t> FileSizeBytes() const;

 private:
  FileManager(int fd, std::string path, FileManagerOptions options,
              uint32_t file_pages, uint64_t cut_budget)
      : fd_(fd),
        path_(std::move(path)),
        options_(options),
        cut_armed_(cut_budget != UINT64_MAX),
        next_page_(file_pages),
        cut_left_(cut_budget) {}

  int fd_;
  std::string path_;
  FileManagerOptions options_;
  /// `storage.file.cut` fired at open; cut_left_ is the remaining budget.
  const bool cut_armed_;

  mutable std::mutex mu_;
  std::set<uint32_t> free_;
  uint32_t next_page_;
  std::map<uint32_t, std::string> overlay_;
  uint64_t write_count_ = 0;
  uint64_t cut_left_;
  bool cut_crossed_ = false;  // a byte was dropped: Sync lies from now on
};

}  // namespace storage
}  // namespace caddb

#endif  // CADDB_STORAGE_FILE_MANAGER_H_
