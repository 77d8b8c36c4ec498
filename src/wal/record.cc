#include "wal/record.h"

#include <iterator>
#include <utility>

#include "persist/value_codec.h"
#include "util/bytes.h"

namespace caddb {
namespace wal {

namespace {

/// Field-presence bits, in the order present fields follow the mask.
constexpr uint32_t kResult = 1u << 0;
constexpr uint32_t kA = 1u << 1;
constexpr uint32_t kB = 1u << 2;
constexpr uint32_t kName = 1u << 3;
constexpr uint32_t kAux = 1u << 4;
constexpr uint32_t kText = 1u << 5;
constexpr uint32_t kValue = 1u << 6;
constexpr uint32_t kIds = 1u << 7;
constexpr uint32_t kParticipants = 1u << 8;
constexpr uint32_t kDetach = 1u << 9;  // no bytes: the bit is the value

/// One row per RecordType, indexed by its value: the type's name, the
/// fields it must carry and the fields it may carry. Part of the on-disk
/// contract: append new types, never reuse or renumber.
struct TypeRule {
  const char* name;
  uint32_t required;
  uint32_t optional;
};

constexpr TypeRule kRules[] = {
    {"begin", 0, 0},
    {"commit", 0, 0},
    {"abort", 0, 0},
    {"ddl", kText, 0},
    {"class", kName | kAux, 0},
    {"create", kResult | kName, kAux},
    {"sub", kResult | kA | kName, 0},
    {"rel", kResult | kName, kParticipants},
    {"subrel", kResult | kA | kName, kParticipants},
    {"bind", kResult | kA | kB | kName, 0},
    {"unbind", kA, 0},
    {"set", kA | kName | kValue, 0},
    {"delete", kA, kDetach},
    {"design", kName | kAux, 0},
    {"version", kName | kA, kIds},
    {"vstate", kName | kA | kAux, 0},
    {"vdefault", kName | kA, 0},
    {"vgeneric", kResult | kA | kName | kAux, 0},
    {"vresolved", kResult | kA, 0},
};
static_assert(std::size(kRules) ==
              static_cast<size_t>(RecordType::kMarkResolved) + 1);

/// The varint and string fields, in mask (and wire) order.
constexpr std::pair<uint32_t, uint64_t Record::*> kIdFields[] = {
    {kResult, &Record::result}, {kA, &Record::a}, {kB, &Record::b}};
constexpr std::pair<uint32_t, std::string Record::*> kStringFields[] = {
    {kName, &Record::name}, {kAux, &Record::aux}, {kText, &Record::text}};

/// The fields of `r` that differ from their defaults. An optional field is
/// written only when it is among these, so decoding one that holds its
/// default is a second spelling of the same record and is rejected.
uint32_t NonDefaultFields(const Record& r) {
  uint32_t mask = 0;
  for (const auto& [bit, field] : kIdFields) mask |= r.*field != 0 ? bit : 0;
  for (const auto& [bit, field] : kStringFields) {
    mask |= (r.*field).empty() ? 0 : bit;
  }
  return mask | (r.value.is_null() ? 0 : kValue) | (r.ids.empty() ? 0 : kIds) |
         (r.participants.empty() ? 0 : kParticipants) |
         (r.detach ? kDetach : 0);
}

void AppendIds(std::string* out, const std::vector<uint64_t>& ids) {
  bytes::AppendVarint(out, ids.size());
  for (uint64_t id : ids) bytes::AppendVarint(out, id);
}

Result<std::vector<uint64_t>> ReadIds(bytes::ByteReader* in) {
  CADDB_ASSIGN_OR_RETURN(uint64_t n, in->Count());
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < n; ++i) {
    CADDB_ASSIGN_OR_RETURN(uint64_t id, in->Varint());
    ids.push_back(id);
  }
  return ids;
}

}  // namespace

const char* RecordTypeName(RecordType type) {
  return kRules[static_cast<int>(type)].name;
}

Record Record::Begin(uint64_t txn) {
  return {.type = RecordType::kBegin, .txn = txn};
}

Record Record::Commit(uint64_t txn) {
  return {.type = RecordType::kCommit, .txn = txn};
}

Record Record::Abort(uint64_t txn) {
  return {.type = RecordType::kAbort, .txn = txn};
}

Record Record::Ddl(uint64_t txn, std::string source) {
  return {.type = RecordType::kDdl, .txn = txn, .text = std::move(source)};
}

Record Record::CreateClass(uint64_t txn, std::string name, std::string type) {
  return {.type = RecordType::kCreateClass, .txn = txn,
          .name = std::move(name), .aux = std::move(type)};
}

Record Record::CreateObject(uint64_t txn, uint64_t created, std::string type,
                            std::string class_name) {
  return {.type = RecordType::kCreateObject, .txn = txn, .result = created,
          .name = std::move(type), .aux = std::move(class_name)};
}

Record Record::CreateSubobject(uint64_t txn, uint64_t created,
                               uint64_t parent, std::string subclass) {
  return {.type = RecordType::kCreateSubobject, .txn = txn, .result = created,
          .a = parent, .name = std::move(subclass)};
}

Record Record::CreateRelationship(
    uint64_t txn, uint64_t created, std::string rel_type,
    std::map<std::string, std::vector<uint64_t>> participants) {
  return {.type = RecordType::kCreateRelationship, .txn = txn,
          .result = created, .name = std::move(rel_type),
          .participants = std::move(participants)};
}

Record Record::CreateSubrel(
    uint64_t txn, uint64_t created, uint64_t owner, std::string subrel,
    std::map<std::string, std::vector<uint64_t>> participants) {
  return {.type = RecordType::kCreateSubrel, .txn = txn, .result = created,
          .a = owner, .name = std::move(subrel),
          .participants = std::move(participants)};
}

Record Record::Bind(uint64_t txn, uint64_t created, uint64_t inheritor,
                    uint64_t transmitter, std::string rel_type) {
  return {.type = RecordType::kBind, .txn = txn, .result = created,
          .a = inheritor, .b = transmitter, .name = std::move(rel_type)};
}

Record Record::Unbind(uint64_t txn, uint64_t inheritor) {
  return {.type = RecordType::kUnbind, .txn = txn, .a = inheritor};
}

Record Record::SetAttribute(uint64_t txn, uint64_t object, std::string attr,
                            Value value) {
  return {.type = RecordType::kSetAttribute, .txn = txn, .a = object,
          .name = std::move(attr), .value = std::move(value)};
}

Record Record::Delete(uint64_t txn, uint64_t object, bool detach) {
  return {.type = RecordType::kDelete, .txn = txn, .a = object,
          .detach = detach};
}

Record Record::CreateDesign(uint64_t txn, std::string design,
                            std::string object_type) {
  return {.type = RecordType::kCreateDesign, .txn = txn,
          .name = std::move(design), .aux = std::move(object_type)};
}

Record Record::AddVersion(uint64_t txn, std::string design, uint64_t object,
                          std::vector<uint64_t> predecessors) {
  return {.type = RecordType::kAddVersion, .txn = txn, .a = object,
          .name = std::move(design), .ids = std::move(predecessors)};
}

Record Record::SetVersionState(uint64_t txn, std::string design,
                               uint64_t object, std::string state) {
  return {.type = RecordType::kSetVersionState, .txn = txn, .a = object,
          .name = std::move(design), .aux = std::move(state)};
}

Record Record::SetDefaultVersion(uint64_t txn, std::string design,
                                 uint64_t object) {
  return {.type = RecordType::kSetDefaultVersion, .txn = txn, .a = object,
          .name = std::move(design)};
}

Record Record::BindGeneric(uint64_t txn, uint64_t binding_id,
                           uint64_t inheritor, std::string design,
                           std::string rel_type) {
  return {.type = RecordType::kBindGeneric, .txn = txn, .result = binding_id,
          .a = inheritor, .name = std::move(design),
          .aux = std::move(rel_type)};
}

Record Record::MarkResolved(uint64_t txn, uint64_t binding_id,
                            uint64_t version) {
  return {.type = RecordType::kMarkResolved, .txn = txn,
          .result = binding_id, .a = version};
}

std::string Record::Encode() const {
  const TypeRule& rule = kRules[static_cast<int>(type)];
  const uint32_t present =
      rule.required | (rule.optional & NonDefaultFields(*this));
  std::string out;
  out.push_back(static_cast<char>(type));
  bytes::AppendVarint(&out, txn);
  bytes::AppendVarint(&out, present);
  for (const auto& [bit, field] : kIdFields) {
    if (present & bit) bytes::AppendVarint(&out, this->*field);
  }
  for (const auto& [bit, field] : kStringFields) {
    if (present & bit) bytes::AppendString(&out, this->*field);
  }
  if (present & kValue) {
    bytes::AppendString(&out, persist::EncodeValue(value));
  }
  if (present & kIds) AppendIds(&out, ids);
  if (present & kParticipants) {
    bytes::AppendVarint(&out, participants.size());
    for (const auto& [role, members] : participants) {
      bytes::AppendString(&out, role);
      AppendIds(&out, members);
    }
  }
  return out;
}

Result<Record> Record::Decode(const std::string& payload) {
  bytes::ByteReader in(payload, "log record");
  CADDB_ASSIGN_OR_RETURN(uint8_t type_byte, in.U8());
  if (type_byte >= std::size(kRules)) {
    return in.Error("unknown record type " + std::to_string(type_byte));
  }
  Record r;
  r.type = static_cast<RecordType>(type_byte);
  const TypeRule& rule = kRules[type_byte];
  CADDB_ASSIGN_OR_RETURN(r.txn, in.Varint());
  CADDB_ASSIGN_OR_RETURN(uint64_t present, in.Varint());
  if (present & ~uint64_t{rule.required | rule.optional}) {
    return in.Error(std::string(rule.name) + " record carries a field it " +
                    "does not allow (mask " + std::to_string(present) + ")");
  }
  if ((present & rule.required) != rule.required) {
    return in.Error(std::string(rule.name) +
                    " record is missing a required field (mask " +
                    std::to_string(present) + ")");
  }
  for (const auto& [bit, field] : kIdFields) {
    if (present & bit) {
      CADDB_ASSIGN_OR_RETURN(r.*field, in.Varint());
    }
  }
  for (const auto& [bit, field] : kStringFields) {
    if (present & bit) {
      CADDB_ASSIGN_OR_RETURN(r.*field, in.String());
    }
  }
  if (present & kValue) {
    CADDB_ASSIGN_OR_RETURN(std::string text, in.String());
    CADDB_ASSIGN_OR_RETURN(r.value, persist::DecodeCanonicalValue(text));
  }
  if (present & kIds) {
    CADDB_ASSIGN_OR_RETURN(r.ids, ReadIds(&in));
  }
  if (present & kParticipants) {
    CADDB_ASSIGN_OR_RETURN(uint64_t roles, in.Count());
    for (uint64_t i = 0; i < roles; ++i) {
      CADDB_ASSIGN_OR_RETURN(std::string role, in.String());
      if (!r.participants.empty() &&
          !(r.participants.rbegin()->first < role)) {
        return in.Error("participant role '" + role + "' out of order");
      }
      CADDB_ASSIGN_OR_RETURN(r.participants[role], ReadIds(&in));
    }
  }
  r.detach = (present & kDetach) != 0;
  CADDB_RETURN_IF_ERROR(in.ExpectEnd());
  if (present & rule.optional & ~uint64_t{NonDefaultFields(r)}) {
    return in.Error(std::string(rule.name) +
                    " record carries an optional field at its default");
  }
  return r;
}

}  // namespace wal
}  // namespace caddb
