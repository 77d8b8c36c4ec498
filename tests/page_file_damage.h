// Shared by the page-flush crash matrices: before recovering from an armed
// `storage.file.cut`, they check the cut actually left a tear on disk, so a
// FileManager that ignored the cut (every write landing whole) cannot pass
// them by recovering from the WAL alone.

#ifndef CADDB_TESTS_PAGE_FILE_DAMAGE_H_
#define CADDB_TESTS_PAGE_FILE_DAMAGE_H_

#include <cstdint>
#include <filesystem>
#include <string>

#include "storage/page.h"
#include "wal/log_io.h"

namespace caddb {

/// True when `dir`'s pages.db is short (not a whole number of pages) or
/// holds a page that is neither an all-zero hole nor passes Page::Parse.
inline bool PageFileShowsATear(const std::string& dir) {
  Result<std::string> file = wal::ReadFileToString(
      (std::filesystem::path(dir) / "pages.db").string());
  if (!file.ok()) return false;
  if (file->size() % storage::kPageSize != 0) return true;
  for (size_t offset = 0; offset < file->size();
       offset += storage::kPageSize) {
    std::string page = file->substr(offset, storage::kPageSize);
    if (storage::Page::IsAllZero(page)) continue;
    const uint32_t id = static_cast<uint32_t>(offset / storage::kPageSize);
    if (!storage::Page::Parse(id, page).ok()) return true;
  }
  return false;
}

}  // namespace caddb

#endif  // CADDB_TESTS_PAGE_FILE_DAMAGE_H_
