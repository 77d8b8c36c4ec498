#ifndef CADDB_UTIL_BYTES_H_
#define CADDB_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace caddb {
namespace bytes {

/// The one byte layout behind every binary format caddb writes — pages and
/// their object payloads, log frames and records, checkpoint bodies, wire
/// frames:
///
///   fixed   u16/u32/u64, little-endian
///   varint  unsigned LEB128, minimal length, at most 10 bytes
///   string  varint byte count, then the bytes
///
/// Writers append to a std::string; ByteReader reads them back with every
/// read bounds-checked.

template <typename T>
inline void StoreLE(char* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

template <typename T>
inline T LoadLE(const char* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(static_cast<unsigned char>(p[i]))
                        << (8 * i));
  }
  return v;
}

inline void StoreU16(char* p, uint16_t v) { StoreLE(p, v); }
inline void StoreU32(char* p, uint32_t v) { StoreLE(p, v); }
inline void StoreU64(char* p, uint64_t v) { StoreLE(p, v); }
inline uint16_t LoadU16(const char* p) { return LoadLE<uint16_t>(p); }
inline uint32_t LoadU32(const char* p) { return LoadLE<uint32_t>(p); }
inline uint64_t LoadU64(const char* p) { return LoadLE<uint64_t>(p); }

inline void AppendU32(std::string* out, uint32_t v) {
  char b[4];
  StoreU32(b, v);
  out->append(b, sizeof(b));
}

inline void AppendU64(std::string* out, uint64_t v) {
  char b[8];
  StoreU64(b, v);
  out->append(b, sizeof(b));
}

inline void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

inline void AppendString(std::string* out, std::string_view s) {
  AppendVarint(out, s.size());
  out->append(s);
}

/// Bounds-checked cursor over an encoded buffer (which must outlive it).
/// Every read either returns the value and advances, or returns a
/// kParseError naming the format, the offset and the defect; it never reads
/// past the end. Varints that are longer than needed or overflow 64 bits
/// are errors, so each value has exactly one accepted encoding.
class ByteReader {
 public:
  /// `what` names the format in error messages ("log record", ...).
  ByteReader(std::string_view data, const char* what)
      : data_(data), what_(what) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> Varint();
  /// A varint element count, rejected when larger than the bytes left (each
  /// element takes at least one byte), so a corrupt count cannot drive a
  /// long loop or a huge allocation.
  Result<uint64_t> Count();
  Result<std::string> String();
  /// The next `n` bytes, as a view into the buffer.
  Result<std::string_view> Bytes(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  /// Error unless every byte was consumed.
  Status ExpectEnd() const;
  /// kParseError "<what>: <why> at offset <bytes consumed so far>".
  Status Error(const std::string& why) const;

 private:
  std::string_view data_;
  const char* what_;
  size_t pos_ = 0;
};

}  // namespace bytes
}  // namespace caddb

#endif  // CADDB_UTIL_BYTES_H_
