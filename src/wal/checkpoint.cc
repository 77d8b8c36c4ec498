#include "wal/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>

#include "fault/failpoint.h"
#include "util/bytes.h"
#include "wal/crc32c.h"
#include "wal/log_io.h"

namespace caddb {
namespace wal {

namespace fs = std::filesystem;

constexpr std::string_view kMagic = "caddb-checkpoint ";

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

std::string EncodeCheckpointBody(const CheckpointData& data) {
  std::string body;
  bytes::AppendVarint(&body, data.replay_from);
  bytes::AppendString(&body, data.meta);
  bytes::AppendVarint(&body, data.pages.size());
  for (const auto& [page_id, image] : data.pages) {
    bytes::AppendVarint(&body, page_id);
    bytes::AppendString(&body, image);
  }
  return body;
}

Result<CheckpointData> DecodeCheckpointBody(std::string_view body) {
  bytes::ByteReader in(body, "checkpoint body");
  CheckpointData data;
  CADDB_ASSIGN_OR_RETURN(data.replay_from, in.Varint());
  CADDB_ASSIGN_OR_RETURN(data.meta, in.String());
  CADDB_ASSIGN_OR_RETURN(uint64_t pages, in.Count());
  for (uint64_t i = 0; i < pages; ++i) {
    CADDB_ASSIGN_OR_RETURN(uint64_t page_id, in.Varint());
    if (page_id > UINT32_MAX) {
      return in.Error("page id " + std::to_string(page_id) + " out of range");
    }
    CADDB_ASSIGN_OR_RETURN(std::string image, in.String());
    data.pages.emplace_back(static_cast<uint32_t>(page_id), std::move(image));
  }
  CADDB_RETURN_IF_ERROR(in.ExpectEnd());
  return data;
}

Status WriteCheckpoint(const std::string& dir, uint64_t lsn,
                       uint64_t generation, const CheckpointData& data) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return InternalError("cannot create checkpoint directory '" + dir +
                         "': " + ec.message());
  }
  const std::string body = EncodeCheckpointBody(data);
  std::string contents(kMagic);
  contents += "4\n";
  bytes::AppendVarint(&contents, lsn);
  bytes::AppendVarint(&contents, generation);
  bytes::AppendU32(&contents, Crc32cMask(Crc32c(body.data(), body.size())));
  contents += body;
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

Result<LoadedCheckpoint> ParseCheckpoint(const std::string& contents,
                                         uint64_t file_lsn) {
  if (contents.compare(0, kMagic.size(), kMagic) != 0) {
    return ParseError("bad header");
  }
  const char* const end = contents.data() + contents.size();
  int version = 0;
  auto [rest, ec] =
      std::from_chars(contents.data() + kMagic.size(), end, version);
  if (ec != std::errc()) return ParseError("bad header");
  if (version != 4) {
    return ParseError("unsupported checkpoint version " +
                      std::to_string(version) + " (only version 4 is read)");
  }
  if (rest == end || *rest != '\n') return ParseError("bad header");
  bytes::ByteReader in(std::string_view(rest + 1, end - rest - 1),
                       "checkpoint header");
  LoadedCheckpoint out;
  CADDB_ASSIGN_OR_RETURN(out.lsn, in.Varint());
  CADDB_ASSIGN_OR_RETURN(out.generation, in.Varint());
  CADDB_ASSIGN_OR_RETURN(uint32_t crc, in.U32());
  if (out.lsn != file_lsn) {
    return ParseError("header lsn does not match file name");
  }
  CADDB_ASSIGN_OR_RETURN(std::string_view body, in.Bytes(in.remaining()));
  if (Crc32cMask(Crc32c(body.data(), body.size())) != crc) {
    return ParseError("crc mismatch");
  }
  CADDB_ASSIGN_OR_RETURN(CheckpointData data, DecodeCheckpointBody(body));
  out.meta = std::move(data.meta);
  out.replay_from = data.replay_from;
  for (auto& [page_id, image] : data.pages) {
    out.pages[page_id] = std::move(image);
  }
  return out;
}

}  // namespace

Result<LoadedCheckpoint> ReadCheckpointFile(const CheckpointFileInfo& info) {
  CADDB_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(info.path));
  Result<LoadedCheckpoint> loaded = ParseCheckpoint(contents, info.lsn);
  if (!loaded.ok()) {
    return Annotate("checkpoint '" + info.path + "'", loaded.status());
  }
  loaded->path = info.path;
  return loaded;
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
