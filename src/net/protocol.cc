#include "net/protocol.h"

#include <cstdio>

#include "util/bytes.h"
#include "wal/crc32c.h"

namespace caddb {
namespace net {

using bytes::AppendU32;
using bytes::AppendU64;
using bytes::LoadU32;
using bytes::LoadU64;

namespace {

bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kProtocolError);
}

Status ProtocolError(const std::string& what) {
  return InvalidArgument("protocol error: " + what);
}

}  // namespace

std::string EncodeFrame(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size() + kFrameTrailerSize);
  AppendU32(&out, kFrameMagic);
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(type));
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  // CRC over version..payload: everything after the magic, before the CRC.
  const uint32_t crc = wal::Crc32c(out.data() + 4, out.size() - 4);
  AppendU32(&out, wal::Crc32cMask(crc));
  return out;
}

Status FrameDecoder::Feed(const void* data, size_t n) {
  if (!error_.ok()) return error_;
  buffer_.append(static_cast<const char*>(data), n);
  error_ = Parse();
  return error_;
}

Status FrameDecoder::Parse() {
  while (buffer_.size() - consumed_ >= kFrameHeaderSize) {
    const char* p = buffer_.data() + consumed_;
    const uint32_t magic = LoadU32(p);
    if (magic != kFrameMagic) {
      return ProtocolError("bad frame magic 0x" + [&] {
        char hex[16];
        std::snprintf(hex, sizeof(hex), "%08x", magic);
        return std::string(hex);
      }());
    }
    const uint8_t version = static_cast<uint8_t>(p[4]);
    if (version != kProtocolVersion) {
      return ProtocolError("unsupported protocol version " +
                           std::to_string(version));
    }
    const uint8_t type = static_cast<uint8_t>(p[5]);
    if (!ValidFrameType(type)) {
      return ProtocolError("unknown frame type " + std::to_string(type));
    }
    const uint32_t length = LoadU32(p + 6);
    if (length > kMaxFramePayload) {
      return ProtocolError("oversized frame: " + std::to_string(length) +
                           " bytes (max " + std::to_string(kMaxFramePayload) +
                           ")");
    }
    const size_t total = kFrameHeaderSize + length + kFrameTrailerSize;
    if (buffer_.size() - consumed_ < total) break;  // wait for more bytes
    const uint32_t stored =
        wal::Crc32cUnmask(LoadU32(p + kFrameHeaderSize + length));
    const uint32_t actual =
        wal::Crc32c(p + 4, kFrameHeaderSize - 4 + length);
    if (stored != actual) {
      return ProtocolError("frame CRC mismatch");
    }
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.payload.assign(p + kFrameHeaderSize, length);
    frames_.push_back(std::move(frame));
    consumed_ += total;
  }
  // Compact once the consumed prefix dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return OkStatus();
}

bool FrameDecoder::Next(Frame* frame) {
  if (frames_.empty()) return false;
  *frame = std::move(frames_.front());
  frames_.pop_front();
  return true;
}

namespace {

// "\0T1" + u64 trace_id + u64 parent_span_id. The NUL cannot begin a
// command line or output, so the block's presence is self-describing.
constexpr size_t kTraceExtSize = 3 + 8 + 8;

void AppendTraceExt(std::string* out, const obs::TraceContext& ctx) {
  out->push_back('\0');
  out->push_back('T');
  out->push_back('1');
  AppendU64(out, ctx.trace_id);
  AppendU64(out, ctx.parent_span_id);
}

// Consumes a trace extension at `*offset` if one is present; advances the
// offset past it. Absence is not an error (old peer); a NUL that is not a
// well-formed extension is.
Status ConsumeTraceExt(const std::string& payload, size_t* offset,
                       obs::TraceContext* ctx) {
  obs::TraceContext parsed;
  if (*offset < payload.size() && payload[*offset] == '\0') {
    if (payload.size() < *offset + kTraceExtSize ||
        payload[*offset + 1] != 'T' || payload[*offset + 2] != '1') {
      return ProtocolError("malformed trace extension");
    }
    parsed.trace_id = LoadU64(payload.data() + *offset + 3);
    parsed.parent_span_id = LoadU64(payload.data() + *offset + 11);
    *offset += kTraceExtSize;
  }
  if (ctx != nullptr) *ctx = parsed;
  return OkStatus();
}

}  // namespace

bool BannerHasCapability(const std::string& banner, const std::string& cap) {
  size_t pos = 0;
  while (pos < banner.size()) {
    size_t end = banner.find(' ', pos);
    if (end == std::string::npos) end = banner.size();
    const std::string word = banner.substr(pos, end - pos);
    if (word.rfind("caps=", 0) == 0) {
      size_t at = 5;
      while (at <= word.size()) {
        size_t comma = word.find(',', at);
        if (comma == std::string::npos) comma = word.size();
        if (word.compare(at, comma - at, cap) == 0) return true;
        at = comma + 1;
      }
    }
    pos = end + 1;
  }
  return false;
}

std::string EncodeRequestPayload(uint64_t id, const std::string& line,
                                 const obs::TraceContext& ctx) {
  std::string out;
  AppendU64(&out, id);
  if (ctx.valid()) AppendTraceExt(&out, ctx);
  out.append(line);
  return out;
}

Status DecodeRequestPayload(const std::string& payload, uint64_t* id,
                            std::string* line, obs::TraceContext* ctx) {
  if (payload.size() < 8) return ProtocolError("short request payload");
  *id = LoadU64(payload.data());
  size_t offset = 8;
  CADDB_RETURN_IF_ERROR(ConsumeTraceExt(payload, &offset, ctx));
  line->assign(payload, offset, payload.size() - offset);
  return OkStatus();
}

std::string EncodeResponsePayload(uint64_t id, bool error,
                                  const std::string& output,
                                  const obs::TraceContext& ctx) {
  std::string out;
  AppendU64(&out, id);
  out.push_back(error ? '\1' : '\0');
  if (ctx.valid()) AppendTraceExt(&out, ctx);
  out.append(output);
  return out;
}

Status DecodeResponsePayload(const std::string& payload, uint64_t* id,
                             bool* error, std::string* output,
                             obs::TraceContext* ctx) {
  if (payload.size() < 9) return ProtocolError("short response payload");
  *id = LoadU64(payload.data());
  *error = payload[8] != '\0';
  size_t offset = 9;
  CADDB_RETURN_IF_ERROR(ConsumeTraceExt(payload, &offset, ctx));
  output->assign(payload, offset, payload.size() - offset);
  return OkStatus();
}

std::string EncodeShedPayload(uint64_t id, const std::string& reason) {
  std::string out;
  AppendU64(&out, id);
  out.append(reason);
  return out;
}

Status DecodeShedPayload(const std::string& payload, uint64_t* id,
                         std::string* reason) {
  if (payload.size() < 8) return ProtocolError("short shed payload");
  *id = LoadU64(payload.data());
  reason->assign(payload, 8, payload.size() - 8);
  return OkStatus();
}

std::string EncodeHelloPayload(SessionRole requested, const std::string& ns) {
  std::string out;
  out.push_back(static_cast<char>(requested));
  out.append(ns);
  return out;
}

Status DecodeHelloPayload(const std::string& payload, SessionRole* requested,
                          std::string* ns) {
  if (payload.empty()) return ProtocolError("empty hello payload");
  const uint8_t role = static_cast<uint8_t>(payload[0]);
  if (role > static_cast<uint8_t>(SessionRole::kReadOnly)) {
    return ProtocolError("unknown session role " + std::to_string(role));
  }
  *requested = static_cast<SessionRole>(role);
  ns->assign(payload, 1, payload.size() - 1);
  return OkStatus();
}

std::string EncodeHelloOkPayload(SessionRole granted,
                                 const std::string& banner) {
  return EncodeHelloPayload(granted, banner);
}

Status DecodeHelloOkPayload(const std::string& payload, SessionRole* granted,
                            std::string* banner) {
  return DecodeHelloPayload(payload, granted, banner);
}

}  // namespace net
}  // namespace caddb
