#include "store/object_codec.h"

#include <vector>

#include "persist/value_codec.h"
#include "util/bytes.h"

namespace caddb {
namespace store_codec {

namespace {

constexpr uint8_t kHasClass = 1;
constexpr uint8_t kHasParent = 2;
constexpr uint8_t kHasBound = 4;

using IdLists = std::map<std::string, std::vector<Surrogate>>;

void AppendIdLists(std::string* out, const IdLists& lists) {
  bytes::AppendVarint(out, lists.size());
  for (const auto& [name, members] : lists) {
    bytes::AppendString(out, name);
    bytes::AppendVarint(out, members.size());
    for (Surrogate s : members) bytes::AppendVarint(out, s.id);
  }
}

/// Reads the next key of `so_far`, a map the encoder wrote in ascending
/// order: a key that does not ascend would decode to a different order or a
/// lost duplicate.
template <typename Map>
Result<std::string> ReadAscendingName(bytes::ByteReader* in,
                                      const Map& so_far) {
  CADDB_ASSIGN_OR_RETURN(std::string name, in->String());
  if (!so_far.empty() && !(so_far.rbegin()->first < name)) {
    return in->Error("name '" + name + "' out of order");
  }
  return name;
}

Result<IdLists> ReadIdLists(bytes::ByteReader* in) {
  IdLists lists;
  CADDB_ASSIGN_OR_RETURN(uint64_t count, in->Count());
  for (uint64_t i = 0; i < count; ++i) {
    CADDB_ASSIGN_OR_RETURN(std::string name, ReadAscendingName(in, lists));
    CADDB_ASSIGN_OR_RETURN(uint64_t members, in->Count());
    std::vector<Surrogate>& list = lists[name];
    for (uint64_t m = 0; m < members; ++m) {
      CADDB_ASSIGN_OR_RETURN(uint64_t id, in->Varint());
      list.push_back(Surrogate(id));
    }
  }
  return lists;
}

}  // namespace

std::string EncodeObjectPayload(
    const DbObject& object,
    const std::map<std::string, Value>* attr_overrides) {
  std::string out;
  bytes::AppendVarint(&out, object.surrogate().id);
  out.push_back(static_cast<char>(object.kind()));
  bytes::AppendString(&out, object.type_name());
  bytes::AppendVarint(&out, object.version());
  const uint8_t flags =
      (object.class_name().empty() ? 0 : kHasClass) |
      (object.parent().valid() ? kHasParent : 0) |
      (object.bound_inher_rel().valid() ? kHasBound : 0);
  out.push_back(static_cast<char>(flags));
  if (flags & kHasClass) bytes::AppendString(&out, object.class_name());
  if (flags & kHasParent) {
    bytes::AppendVarint(&out, object.parent().id);
    bytes::AppendString(&out, object.parent_subclass());
  }
  if (flags & kHasBound) bytes::AppendVarint(&out, object.bound_inher_rel().id);

  // Checkpoint undo masking: an override replaces the attribute's value (a
  // null override drops it); an override of an attribute the object does
  // not hold adds it.
  const std::map<std::string, Value>* attrs = &object.attributes();
  std::map<std::string, Value> merged;
  if (attr_overrides) {
    merged = *attrs;
    for (const auto& [name, value] : *attr_overrides) merged[name] = value;
    attrs = &merged;
  }
  size_t live = 0;
  for (const auto& [name, value] : *attrs) live += value.is_null() ? 0 : 1;
  bytes::AppendVarint(&out, live);
  for (const auto& [name, value] : *attrs) {
    if (value.is_null()) continue;
    bytes::AppendString(&out, name);
    bytes::AppendString(&out, persist::EncodeValue(value));
  }
  AppendIdLists(&out, object.subclasses());
  AppendIdLists(&out, object.subrels());
  AppendIdLists(&out, object.participants());
  return out;
}

Result<std::unique_ptr<DbObject>> DecodeObjectPayload(
    const std::string& payload) {
  bytes::ByteReader in(payload, "object payload");
  CADDB_ASSIGN_OR_RETURN(uint64_t surrogate, in.Varint());
  if (surrogate == 0) return in.Error("surrogate 0");
  CADDB_ASSIGN_OR_RETURN(uint8_t kind, in.U8());
  if (kind > static_cast<uint8_t>(ObjKind::kInherRel)) {
    return in.Error("unknown object kind " + std::to_string(kind));
  }
  CADDB_ASSIGN_OR_RETURN(std::string type_name, in.String());
  auto object = std::make_unique<DbObject>(
      Surrogate(surrogate), std::move(type_name), static_cast<ObjKind>(kind));
  CADDB_ASSIGN_OR_RETURN(uint64_t version, in.Varint());
  object->set_version(version);
  CADDB_ASSIGN_OR_RETURN(uint8_t flags, in.U8());
  if (flags & ~(kHasClass | kHasParent | kHasBound)) {
    return in.Error("unknown presence flags " + std::to_string(flags));
  }
  if (flags & kHasClass) {
    CADDB_ASSIGN_OR_RETURN(std::string name, in.String());
    if (name.empty()) return in.Error("empty class name");
    object->set_class_name(std::move(name));
  }
  if (flags & kHasParent) {
    CADDB_ASSIGN_OR_RETURN(uint64_t parent, in.Varint());
    if (parent == 0) return in.Error("parent surrogate 0");
    CADDB_ASSIGN_OR_RETURN(std::string subclass, in.String());
    object->SetParent(Surrogate(parent), std::move(subclass));
  }
  if (flags & kHasBound) {
    CADDB_ASSIGN_OR_RETURN(uint64_t bound, in.Varint());
    if (bound == 0) return in.Error("bound surrogate 0");
    object->set_bound_inher_rel(Surrogate(bound));
  }
  CADDB_ASSIGN_OR_RETURN(uint64_t attrs, in.Count());
  for (uint64_t i = 0; i < attrs; ++i) {
    CADDB_ASSIGN_OR_RETURN(std::string name,
                           ReadAscendingName(&in, object->attributes()));
    CADDB_ASSIGN_OR_RETURN(std::string text, in.String());
    CADDB_ASSIGN_OR_RETURN(Value value, persist::DecodeCanonicalValue(text));
    if (value.is_null()) return in.Error("null value for '" + name + "'");
    object->SetLocalAttribute(name, std::move(value));
  }
  CADDB_ASSIGN_OR_RETURN(IdLists sub, ReadIdLists(&in));
  CADDB_ASSIGN_OR_RETURN(IdLists srel, ReadIdLists(&in));
  CADDB_ASSIGN_OR_RETURN(IdLists part, ReadIdLists(&in));
  CADDB_RETURN_IF_ERROR(in.ExpectEnd());
  for (auto& [name, ids] : sub) object->SetSubclass(name, std::move(ids));
  for (auto& [name, ids] : srel) object->SetSubrel(name, std::move(ids));
  for (auto& [role, ids] : part) object->SetParticipants(role, std::move(ids));
  return object;
}

}  // namespace store_codec
}  // namespace caddb
