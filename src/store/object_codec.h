#ifndef CADDB_STORE_OBJECT_CODEC_H_
#define CADDB_STORE_OBJECT_CODEC_H_

#include <map>
#include <memory>
#include <string>

#include "store/object.h"
#include "util/result.h"
#include "values/value.h"

namespace caddb {
namespace store_codec {

/// Serializes one DbObject into the binary payload stored on pages, in the
/// util/bytes.h layout:
///
///   varint surrogate, u8 kind, string type, varint version
///   u8 presence flags: 1 class, 2 parent, 4 bound
///   [string class] [varint parent, string subclass] [varint bound]
///   varint n, n x (string attribute, string persist::EncodeValue text)
///   sub, srel, part lists, each: varint n, n x (string name, varint k,
///   k x varint surrogate)
///
/// Names ascend within each map. Surrogates are stored raw — a page payload
/// is identity-preserving, unlike a portable dump. `attr_overrides`
/// substitutes before-images for attributes a live transaction has
/// uncommitted writes on (checkpoint undo masking): an override mapping a
/// name to a null Value removes the attribute, and an override of an
/// attribute the object does not hold adds it.
std::string EncodeObjectPayload(
    const DbObject& object,
    const std::map<std::string, Value>* attr_overrides = nullptr);

/// Inverse of EncodeObjectPayload. Accepts only what it would write
/// (ascending names, canonical varints and values, no trailing bytes), so a
/// payload that decodes re-encodes byte-identically.
Result<std::unique_ptr<DbObject>> DecodeObjectPayload(
    const std::string& payload);

}  // namespace store_codec
}  // namespace caddb

#endif  // CADDB_STORE_OBJECT_CODEC_H_
