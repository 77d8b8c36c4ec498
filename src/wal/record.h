#ifndef CADDB_WAL_RECORD_H_
#define CADDB_WAL_RECORD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/result.h"
#include "values/value.h"

namespace caddb {
namespace wal {

/// One logical redo record: a mutating operation of the public Database /
/// TransactionManager / VersionManager API, plus transaction markers. The
/// log is *logical* (operation + arguments, not byte deltas): recovery
/// replays records through the same public API that produced them, so every
/// schema, domain, binding and cycle invariant is re-validated on the way
/// back in — the same property persist::Dumper::Load relies on.
enum class RecordType {
  kBegin,     // explicit transaction starts (first write of a txn)
  kCommit,    // transaction commit marker — the durability point
  kAbort,     // transaction rolled back; its records are skipped on replay
  kDdl,       // ExecuteDdl source text
  kCreateClass,
  kCreateObject,
  kCreateSubobject,
  kCreateRelationship,
  kCreateSubrel,
  kBind,
  kUnbind,
  kSetAttribute,
  kDelete,
  // Version-manager operations.
  kCreateDesign,
  kAddVersion,
  kSetVersionState,
  kSetDefaultVersion,
  kBindGeneric,
  kMarkResolved,
};

const char* RecordTypeName(RecordType type);

/// Transaction id 0 marks auto-committed records: single operations issued
/// outside an explicit transaction. They need no BEGIN/COMMIT bracket and
/// are always replayed.
constexpr uint64_t kAutoCommitTxn = 0;

/// A decoded log record. One struct covers every RecordType; the factory
/// functions below document which fields each operation uses. Surrogates are
/// the *runtime* ids of the process that wrote the log; recovery remaps them
/// (creation records carry the id the operation returned in `result`, which
/// seeds the old-id -> new-id mapping exactly like a dump load).
struct Record {
  RecordType type = RecordType::kBegin;
  uint64_t txn = kAutoCommitTxn;

  uint64_t result = 0;    // surrogate returned by creates / generic-binding id
  uint64_t a = 0;         // first operand surrogate (object, inheritor, ...)
  uint64_t b = 0;         // second operand surrogate (transmitter, ...)
  std::string name{};     // type / class / attribute / design name
  std::string aux{};      // secondary name (class, subclass, rel-type, state)
  std::string text{};     // DDL source (kDdl only)
  Value value{};          // kSetAttribute payload
  std::vector<uint64_t> ids{};  // kAddVersion predecessors
  std::map<std::string, std::vector<uint64_t>> participants{};
  bool detach = false;    // kDelete: DeletePolicy::kDetachInheritors

  // ---- Factories (one per operation; arguments mirror the API call) ----
  static Record Begin(uint64_t txn);
  static Record Commit(uint64_t txn);
  static Record Abort(uint64_t txn);
  static Record Ddl(uint64_t txn, std::string source);
  static Record CreateClass(uint64_t txn, std::string name, std::string type);
  static Record CreateObject(uint64_t txn, uint64_t created, std::string type,
                             std::string class_name);
  static Record CreateSubobject(uint64_t txn, uint64_t created,
                                uint64_t parent, std::string subclass);
  static Record CreateRelationship(
      uint64_t txn, uint64_t created, std::string rel_type,
      std::map<std::string, std::vector<uint64_t>> participants);
  static Record CreateSubrel(
      uint64_t txn, uint64_t created, uint64_t owner, std::string subrel,
      std::map<std::string, std::vector<uint64_t>> participants);
  static Record Bind(uint64_t txn, uint64_t created, uint64_t inheritor,
                     uint64_t transmitter, std::string rel_type);
  static Record Unbind(uint64_t txn, uint64_t inheritor);
  static Record SetAttribute(uint64_t txn, uint64_t object, std::string attr,
                             Value value);
  static Record Delete(uint64_t txn, uint64_t object, bool detach);
  static Record CreateDesign(uint64_t txn, std::string design,
                             std::string object_type);
  static Record AddVersion(uint64_t txn, std::string design, uint64_t object,
                           std::vector<uint64_t> predecessors);
  static Record SetVersionState(uint64_t txn, std::string design,
                                uint64_t object, std::string state);
  static Record SetDefaultVersion(uint64_t txn, std::string design,
                                  uint64_t object);
  static Record BindGeneric(uint64_t txn, uint64_t binding_id,
                            uint64_t inheritor, std::string design,
                            std::string rel_type);
  static Record MarkResolved(uint64_t txn, uint64_t binding_id,
                             uint64_t version);

  /// Binary payload (framed with length + CRC by log_io, so the encoding
  /// needs no terminator), in the util/bytes.h layout:
  ///
  ///   u8 type, varint txn, varint field-presence mask, then the present
  ///   fields in this order: result, a, b (varints); name, aux, text
  ///   (strings); value (string, persist::EncodeValue text); ids (varint
  ///   n, n varints); participants (varint n, n x (string role, varint k,
  ///   k varints), roles ascending). detach has no bytes: its bit is the
  ///   value.
  ///
  /// Which fields a type must and may carry is one table row per
  /// RecordType (record.cc); an optional field is written only when it is
  /// not at its default.
  std::string Encode() const;

  /// Inverse of Encode. kParseError on an unknown type, a field the type
  /// does not allow or lacks, a non-canonical varint, value or default-held
  /// optional field, a length past the end, or trailing bytes — so every
  /// payload it accepts re-encodes byte-identically.
  static Result<Record> Decode(const std::string& payload);

  bool operator==(const Record& other) const = default;
};

}  // namespace wal
}  // namespace caddb

#endif  // CADDB_WAL_RECORD_H_
