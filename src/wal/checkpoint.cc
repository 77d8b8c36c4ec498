#include "wal/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "fault/failpoint.h"
#include "wal/crc32c.h"
#include "wal/log_io.h"

namespace caddb {
namespace wal {

namespace fs = std::filesystem;

std::string CheckpointFileName(uint64_t lsn) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "checkpoint-%016llx.db",
                static_cast<unsigned long long>(lsn));
  return buf;
}

std::vector<CheckpointFileInfo> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointFileInfo> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long lsn = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "checkpoint-%16llx.db%n", &lsn,
                    &consumed) == 1 &&
        static_cast<size_t>(consumed) == name.size()) {
      out.push_back({entry.path().string(), static_cast<uint64_t>(lsn)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointFileInfo& a, const CheckpointFileInfo& b) {
              return a.lsn < b.lsn;
            });
  return out;
}

Status WriteCheckpoint(const std::string& dir, uint64_t lsn,
                       uint64_t generation, const CheckpointData& data) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return InternalError("cannot create checkpoint directory '" + dir +
                         "': " + ec.message());
  }
  std::string body;
  body += "replayfrom " + std::to_string(data.replay_from) + "\n";
  body += "meta " + std::to_string(data.meta.size()) + "\n";
  body += data.meta;
  body += "pages " + std::to_string(data.pages.size()) + "\n";
  for (const auto& [page_id, image] : data.pages) {
    body += "page " + std::to_string(page_id) + " " +
            std::to_string(image.size()) + "\n";
    body += image;
  }
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                Crc32cMask(Crc32c(body.data(), body.size())));
  std::string contents = "caddb-checkpoint 3 " + std::to_string(lsn) + " " +
                         std::to_string(generation) + " " +
                         std::to_string(body.size()) + " " + crc_hex + "\n" +
                         body;
  const std::string path = (fs::path(dir) / CheckpointFileName(lsn)).string();
  CADDB_RETURN_IF_ERROR(fault::Inject(fault::sites::kWalCheckpointPublish));
  CADDB_RETURN_IF_ERROR(AtomicWriteFile(path, contents));
  // The new checkpoint is durable; older ones are now dead weight.
  for (const CheckpointFileInfo& info : ListCheckpoints(dir)) {
    if (info.lsn >= lsn) continue;
    fs::remove(info.path, ec);
    if (ec) {
      return InternalError("cannot remove old checkpoint '" + info.path +
                           "': " + ec.message());
    }
  }
  return SyncDir(dir);
}

namespace {

/// Parses the body (after the CRC already checked out).
Status ParseBody(const std::string& path, const std::string& body,
                   LoadedCheckpoint* out) {
  size_t pos = 0;
  auto next_line = [&](std::string* line) -> bool {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) return false;
    *line = body.substr(pos, eol - pos);
    pos = eol + 1;
    return true;
  };
  std::string line;
  unsigned long long value = 0;
  if (!next_line(&line) ||
      std::sscanf(line.c_str(), "replayfrom %llu", &value) != 1) {
    return ParseError("checkpoint '" + path + "': bad replayfrom line");
  }
  out->replay_from = value;
  if (!next_line(&line) ||
      std::sscanf(line.c_str(), "meta %llu", &value) != 1 ||
      body.size() - pos < value) {
    return ParseError("checkpoint '" + path + "': bad meta section");
  }
  out->meta = body.substr(pos, value);
  pos += value;
  unsigned long long page_count = 0;
  if (!next_line(&line) ||
      std::sscanf(line.c_str(), "pages %llu", &page_count) != 1) {
    return ParseError("checkpoint '" + path + "': bad pages line");
  }
  for (unsigned long long i = 0; i < page_count; ++i) {
    unsigned long long page_id = 0;
    if (!next_line(&line) ||
        std::sscanf(line.c_str(), "page %llu %llu", &page_id, &value) != 2 ||
        body.size() - pos < value) {
      return ParseError("checkpoint '" + path + "': bad page section " +
                        std::to_string(i));
    }
    out->pages[static_cast<uint32_t>(page_id)] = body.substr(pos, value);
    pos += value;
  }
  if (pos != body.size()) {
    return ParseError("checkpoint '" + path + "': trailing bytes after pages");
  }
  return OkStatus();
}

}  // namespace

Result<LoadedCheckpoint> ReadCheckpointFile(const CheckpointFileInfo& info) {
  CADDB_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(info.path));
  size_t eol = contents.find('\n');
  if (eol == std::string::npos) {
    return ParseError("checkpoint '" + info.path + "': missing header line");
  }
  std::istringstream header(contents.substr(0, eol));
  std::string magic;
  int version = 0;
  uint64_t lsn = 0;
  uint64_t generation = 0;
  size_t body_bytes = 0;
  std::string crc_hex;
  header >> magic >> version;
  if (magic != "caddb-checkpoint" || header.fail()) {
    return ParseError("checkpoint '" + info.path + "': bad header");
  }
  if (version != 3) {
    return ParseError("checkpoint '" + info.path +
                      "': unsupported checkpoint version " +
                      std::to_string(version) + " (only version 3 is read)");
  }
  header >> lsn >> generation >> body_bytes >> crc_hex;
  if (header.fail()) {
    return ParseError("checkpoint '" + info.path + "': bad header");
  }
  if (lsn != info.lsn) {
    return ParseError("checkpoint '" + info.path +
                      "': header lsn does not match file name");
  }
  std::string body = contents.substr(eol + 1);
  if (body.size() != body_bytes) {
    return ParseError("checkpoint '" + info.path + "': body is " +
                      std::to_string(body.size()) + " bytes, header says " +
                      std::to_string(body_bytes));
  }
  uint32_t expected = 0;
  if (std::sscanf(crc_hex.c_str(), "%8x", &expected) != 1) {
    return ParseError("checkpoint '" + info.path + "': bad crc field");
  }
  uint32_t actual = Crc32cMask(Crc32c(body.data(), body.size()));
  if (actual != expected) {
    return ParseError("checkpoint '" + info.path + "': crc mismatch");
  }
  LoadedCheckpoint out;
  out.lsn = lsn;
  out.generation = generation;
  out.path = info.path;
  CADDB_RETURN_IF_ERROR(ParseBody(info.path, body, &out));
  return out;
}

Result<LoadedCheckpoint> ReadNewestCheckpoint(const std::string& dir) {
  std::vector<CheckpointFileInfo> all = ListCheckpoints(dir);
  std::string first_error;
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    Result<LoadedCheckpoint> loaded = ReadCheckpointFile(*it);
    if (loaded.ok()) return loaded;
    if (first_error.empty()) first_error = loaded.status().message();
  }
  if (!all.empty()) {
    // Every checkpoint on disk is damaged: surface it rather than silently
    // replaying the whole log against an empty store, which would produce a
    // plausible-looking but wrong database.
    return InternalError("no usable checkpoint in '" + dir +
                         "' (newest failed with: " + first_error + ")");
  }
  return LoadedCheckpoint{};  // fresh directory
}

}  // namespace wal
}  // namespace caddb
