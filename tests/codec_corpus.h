// Valid encodings shared by the codec suites: one record of every WAL
// record shape and one object of every page-payload shape. wal_test's
// round trip, codec_test's property checks and codec_fuzz_test's mutation
// seeds all start from these.

#ifndef CADDB_TESTS_CODEC_CORPUS_H_
#define CADDB_TESTS_CODEC_CORPUS_H_

#include <memory>
#include <vector>

#include "store/object.h"
#include "values/value.h"
#include "wal/record.h"

namespace caddb {
namespace codec_corpus {

inline std::vector<wal::Record> AllRecordKinds() {
  using wal::kAutoCommitTxn;
  using wal::Record;
  return {
      Record::Begin(7),
      Record::Commit(7),
      Record::Abort(9),
      Record::Ddl(kAutoCommitTxn, "obj-type X =\n  attributes:\n"
                                  "    \"quoted\" A: integer;\nend X;\n"),
      Record::CreateClass(kAutoCommitTxn, "Plates", "Plate"),
      Record::CreateObject(kAutoCommitTxn, 12, "Plate", "Plates"),
      Record::CreateObject(3, 13, "Plate", ""),
      Record::CreateSubobject(kAutoCommitTxn, 14, 12, "Pins"),
      Record::CreateRelationship(kAutoCommitTxn, 15, "Wire",
                                 {{"Pin1", {3, 4}}, {"Pin2", {5}}}),
      Record::CreateSubrel(kAutoCommitTxn, 16, 12, "Wires",
                           {{"Pin1", {3}}, {"Pin2", {}}}),
      Record::Bind(kAutoCommitTxn, 17, 12, 13, "AllOf_Plate"),
      Record::Unbind(kAutoCommitTxn, 12),
      Record::SetAttribute(5, 12, "Thickness", Value::Int(4)),
      Record::SetAttribute(
          kAutoCommitTxn, 12, "Shape",
          Value::Record({{"P", Value::Point(1, -2)},
                         {"Tags", Value::List({Value::Enum("A"),
                                               Value::String("x;\"y\"")})}})),
      Record::Delete(kAutoCommitTxn, 12, true),
      Record::Delete(4, 13, false),
      Record::CreateDesign(kAutoCommitTxn, "alu", "Plate"),
      Record::AddVersion(kAutoCommitTxn, "alu", 12, {10, 11}),
      Record::AddVersion(kAutoCommitTxn, "alu", 12, {}),
      Record::SetVersionState(kAutoCommitTxn, "alu", 12, "released"),
      Record::SetDefaultVersion(kAutoCommitTxn, "alu", 12),
      Record::BindGeneric(kAutoCommitTxn, 2, 12, "alu", "AllOf_Plate"),
      Record::MarkResolved(kAutoCommitTxn, 2, 12),
  };
}

/// Every attribute value the record corpus carries, plus the value kinds it
/// lacks (real, bool, ref, set, matrix).
inline std::vector<Value> AllValueShapes() {
  std::vector<Value> values;
  for (const wal::Record& r : AllRecordKinds()) {
    if (!r.value.is_null()) values.push_back(r.value);
  }
  values.push_back(Value::Real(-2.5e-3));
  values.push_back(Value::Bool(true));
  values.push_back(Value::Ref(Surrogate(300)));
  values.push_back(Value::Set({Value::Int(3), Value::Int(1)}));
  values.push_back(Value::Matrix(
      2, 2, {Value::Int(1), Value::Int(0), Value::Int(0), Value::Int(1)}));
  values.push_back(Value::String(""));
  return values;
}

/// Objects of every ObjKind, with and without class, parent and bound, with
/// no attributes or with every value shape, and with empty and non-empty
/// sub/srel/part lists.
inline std::vector<std::unique_ptr<DbObject>> AllObjectShapes() {
  std::vector<std::unique_ptr<DbObject>> out;
  const std::vector<Value> values = AllValueShapes();
  uint64_t next = 1;
  for (ObjKind kind :
       {ObjKind::kObject, ObjKind::kRelationship, ObjKind::kInherRel}) {
    for (int variant = 0; variant < 4; ++variant) {
      auto object = std::make_unique<DbObject>(Surrogate(next++), "Type_A",
                                               kind);
      object->set_version(variant == 0 ? 0 : 1000 * next);
      if (variant & 1) object->set_class_name("Plates");
      if (variant & 2) object->SetParent(Surrogate(1u << 20), "Pins");
      if (variant == 1 || variant == 3) {
        object->set_bound_inher_rel(Surrogate(129));
      }
      if (variant >= 2) {
        for (size_t i = 0; i < values.size(); ++i) {
          object->SetLocalAttribute("A" + std::to_string(i), values[i]);
        }
        object->AddToSubclass("Pins", Surrogate(4));
        object->AddToSubclass("Pins", Surrogate(5));
        object->SetSubclass("Empty", {});
        object->AddToSubrel("Wires", Surrogate(6));
        object->SetSubrel("NoWires", {});
        object->SetParticipants("Pin1", {Surrogate(7), Surrogate(8)});
        object->SetParticipants("Pin2", {});
      }
      out.push_back(std::move(object));
    }
  }
  return out;
}

}  // namespace codec_corpus
}  // namespace caddb

#endif  // CADDB_TESTS_CODEC_CORPUS_H_
