#ifndef CADDB_NET_PROTOCOL_H_
#define CADDB_NET_PROTOCOL_H_

#include <cstdint>
#include <deque>
#include <string>

#include "obs/trace.h"
#include "util/result.h"

namespace caddb {
namespace net {

/// Wire framing for the caddb service protocol, reusing the WAL's CRC32C
/// discipline: every frame is length-prefixed and carries a masked CRC32C
/// over its version, type, length and payload, so a flipped bit anywhere is
/// a detected protocol error, never silently misparsed data.
///
/// Frame layout (all integers little-endian):
///
///   u32 magic      0x4644'4143 ("CADF")
///   u8  version    kProtocolVersion
///   u8  type       FrameType
///   u32 length     payload byte count (<= kMaxFramePayload)
///   ..  payload    `length` bytes
///   u32 crc        masked CRC32C over bytes [4, 10+length)
///
/// The magic deliberately differs from any plausible HTTP request bytes:
/// the server sniffs the first bytes of a connection and routes "GET ..."
/// to the Prometheus scrape path, everything else to the frame decoder.
///
/// Conversation: the client opens with kHello (requested role + namespace),
/// the server answers kHelloOk (granted role + banner). Each kRequest
/// carries a client-chosen correlation id and one shell command line; the
/// server answers with kResponse (same id, error flag, output text) or
/// kShed (same id, reason) when admission control refuses the request.
/// kShed is the backpressure contract: a saturated server answers in
/// bounded time instead of buffering without bound. kProtocolError is
/// terminal — the framing is lost, the connection closes.

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kRequest = 3,
  kResponse = 4,
  kShed = 5,
  kGoodbye = 6,
  kProtocolError = 7,
};

constexpr uint32_t kFrameMagic = 0x46444143u;  // "CADF"
constexpr uint8_t kProtocolVersion = 1;
constexpr size_t kFrameHeaderSize = 10;  // magic + version + type + length
constexpr size_t kFrameTrailerSize = 4;  // masked crc
constexpr size_t kMaxFramePayload = 16u * 1024 * 1024;

/// Session roles. A writable session may run every shell verb; a read-only
/// one is restricted to non-mutating commands (queries, checks, status,
/// metrics). kDefault asks for whatever the server grants.
enum class SessionRole : uint8_t { kDefault = 0, kWritable = 1, kReadOnly = 2 };

struct Frame {
  FrameType type = FrameType::kGoodbye;
  std::string payload;
};

/// Encodes one complete frame, CRC included.
std::string EncodeFrame(FrameType type, const std::string& payload);

/// Incremental frame decoder over a byte stream. Feed() accepts arbitrary
/// splits (a frame may arrive one byte at a time); complete, CRC-verified
/// frames are popped with Next(). Malformed input — wrong magic or version,
/// an unknown type, an oversized length, or a CRC mismatch — poisons the
/// decoder: Feed() returns (and keeps returning) the error, and no further
/// frames are produced. Framing cannot be resynchronized after corruption;
/// the connection must close.
class FrameDecoder {
 public:
  Status Feed(const void* data, size_t n);
  /// Pops the next complete frame; false when none is buffered.
  bool Next(Frame* frame);
  bool poisoned() const { return !error_.ok(); }
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  Status Parse();

  std::string buffer_;
  size_t consumed_ = 0;
  std::deque<Frame> frames_;
  Status error_ = OkStatus();
};

// ---- Payload codecs ----
// Request:  u64 id | [trace ext] | command line bytes
// Response: u64 id | u8 error flag | [trace ext] | output bytes
// Shed:     u64 id | reason bytes             (id 0: connection-level shed)
// Hello:    u8 requested SessionRole | namespace bytes
// HelloOk:  u8 granted SessionRole | banner bytes
//
// The trace extension is a versioned block "\0T1" + u64 trace_id +
// u64 parent_span_id inserted where the text would begin. Command lines
// and outputs are text and never start with NUL, so its presence is
// unambiguous: a new peer accepts both forms (absent extension means "no
// context" — the receiver starts a new trace root), while an old decoder
// would misread the block as text. To protect old peers the extension is
// only ever *sent* negotiated: clients look for the "trace" capability in
// the HelloOk banner's `caps=` word before attaching context, and the
// server echoes context only on responses to requests that carried it.

/// Banner word advertising optional protocol features, e.g. "caps=trace".
/// Old clients simply display it; new clients parse it.
constexpr const char* kTraceCapability = "trace";
/// True when `banner` contains a whitespace-delimited `caps=` word whose
/// comma-separated list includes `cap`.
bool BannerHasCapability(const std::string& banner, const std::string& cap);

std::string EncodeRequestPayload(uint64_t id, const std::string& line,
                                 const obs::TraceContext& ctx = {});
/// `ctx` (when given) is left invalid (trace_id 0) when the payload has no
/// extension.
Status DecodeRequestPayload(const std::string& payload, uint64_t* id,
                            std::string* line,
                            obs::TraceContext* ctx = nullptr);

/// The response extension carries the server's trace_id + net.request
/// span id so the client can stitch the remote subtree to its root.
std::string EncodeResponsePayload(uint64_t id, bool error,
                                  const std::string& output,
                                  const obs::TraceContext& ctx = {});
Status DecodeResponsePayload(const std::string& payload, uint64_t* id,
                             bool* error, std::string* output,
                             obs::TraceContext* ctx = nullptr);

std::string EncodeShedPayload(uint64_t id, const std::string& reason);
Status DecodeShedPayload(const std::string& payload, uint64_t* id,
                         std::string* reason);

std::string EncodeHelloPayload(SessionRole requested, const std::string& ns);
Status DecodeHelloPayload(const std::string& payload, SessionRole* requested,
                          std::string* ns);

std::string EncodeHelloOkPayload(SessionRole granted,
                                 const std::string& banner);
Status DecodeHelloOkPayload(const std::string& payload, SessionRole* granted,
                            std::string* banner);

}  // namespace net
}  // namespace caddb

#endif  // CADDB_NET_PROTOCOL_H_
