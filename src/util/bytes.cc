#include "util/bytes.h"

namespace caddb {
namespace bytes {

Status ByteReader::Error(const std::string& why) const {
  return ParseError(std::string(what_) + ": " + why + " at offset " +
                    std::to_string(pos_));
}

Result<std::string_view> ByteReader::Bytes(size_t n) {
  if (n > remaining()) {
    return Error("need " + std::to_string(n) + " bytes, " +
                 std::to_string(remaining()) + " left");
  }
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

Result<uint8_t> ByteReader::U8() {
  CADDB_ASSIGN_OR_RETURN(std::string_view b, Bytes(1));
  return static_cast<uint8_t>(b[0]);
}

Result<uint32_t> ByteReader::U32() {
  CADDB_ASSIGN_OR_RETURN(std::string_view b, Bytes(4));
  return LoadU32(b.data());
}

Result<uint64_t> ByteReader::Varint() {
  uint64_t v = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos_ >= data_.size()) return Error("truncated varint");
    const uint8_t byte = static_cast<uint8_t>(data_[pos_]);
    if (i == 9 && byte > 1) return Error("varint overflows 64 bits");
    if (i > 0 && byte == 0) return Error("overlong varint");
    ++pos_;
    v |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) return v;
  }
  return Error("varint overflows 64 bits");
}

Result<uint64_t> ByteReader::Count() {
  CADDB_ASSIGN_OR_RETURN(uint64_t n, Varint());
  if (n > remaining()) {
    return Error("count " + std::to_string(n) + " exceeds the " +
                 std::to_string(remaining()) + " bytes left");
  }
  return n;
}

Result<std::string> ByteReader::String() {
  CADDB_ASSIGN_OR_RETURN(uint64_t n, Varint());
  if (n > remaining()) {
    return Error("string of " + std::to_string(n) + " bytes runs past the end");
  }
  CADDB_ASSIGN_OR_RETURN(std::string_view s, Bytes(static_cast<size_t>(n)));
  return std::string(s);
}

Status ByteReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Error(std::to_string(remaining()) + " trailing bytes");
  }
  return OkStatus();
}

}  // namespace bytes
}  // namespace caddb
