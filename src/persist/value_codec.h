#ifndef CADDB_PERSIST_VALUE_CODEC_H_
#define CADDB_PERSIST_VALUE_CODEC_H_

#include <string>

#include "util/result.h"
#include "values/value.h"

namespace caddb {
namespace persist {

/// Serializes a Value into a compact single-line text form:
///
///   null                      i:42        r:3.5        b:1
///   s:"escaped \"text\""      e:NAND      @17
///   R{X=i:3;Y=i:4}            L[i:1;i:2]  S[i:1;i:3]
///   M[2,2][b:1;b:0;b:0;b:1]
///
/// The encoding round-trips exactly (DecodeValue(EncodeValue(v)) == v).
std::string EncodeValue(const Value& v);

/// Parses the encoding above; kParseError on malformed input.
Result<Value> DecodeValue(const std::string& text);

/// DecodeValue of only the spelling EncodeValue produces ("i:07", "r:3.50"
/// or an unsorted set are errors). The binary page and log formats carry
/// values this way, so every payload they accept re-encodes byte-identically.
Result<Value> DecodeCanonicalValue(const std::string& text);

/// String escaping helpers shared with the dump format.
std::string EscapeString(const std::string& s);
Result<std::string> UnescapeString(const std::string& s);

}  // namespace persist
}  // namespace caddb

#endif  // CADDB_PERSIST_VALUE_CODEC_H_
