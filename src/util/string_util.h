#ifndef CADDB_UTIL_STRING_UTIL_H_
#define CADDB_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace caddb {

/// Joins `parts` with `sep` ("a", "b" -> "a.b").
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits `s` at every occurrence of `sep` (no escaping). Empty input yields
/// a single empty element, matching the usual split semantics.
std::vector<std::string> Split(const std::string& s, char sep);

/// An unsigned decimal of at most `max`, from text that comes from outside
/// the program: digits only, so a sign, blanks, trailing characters and
/// overflow are InvalidArgument ("bad <what> '<text>'").
Result<uint64_t> ParseUint(std::string_view text, const char* what,
                           uint64_t max = UINT64_MAX);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Renders an integer with thousands separators for benchmark/report output.
std::string FormatWithCommas(int64_t v);

}  // namespace caddb

#endif  // CADDB_UTIL_STRING_UTIL_H_
