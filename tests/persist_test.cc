#include "persist/dump.h"
#include "persist/value_codec.h"

#include <gtest/gtest.h>

#include "core/paper_schemas.h"
#include "core/stats.h"
#include "versions/selection.h"

namespace caddb {
namespace persist {
namespace {

// ---- Value codec ----

class ValueCodecTest : public ::testing::TestWithParam<Value> {};

TEST_P(ValueCodecTest, RoundTrips) {
  const Value& v = GetParam();
  std::string encoded = EncodeValue(v);
  Result<Value> decoded = DecodeValue(encoded);
  ASSERT_TRUE(decoded.ok()) << encoded << ": "
                            << decoded.status().ToString();
  EXPECT_EQ(*decoded, v) << encoded;
}

INSTANTIATE_TEST_SUITE_P(
    Values, ValueCodecTest,
    ::testing::Values(
        Value::Null(), Value::Int(0), Value::Int(-42),
        Value::Int(9223372036854775807LL),
        Value::Int(-9223372036854775807LL - 1), Value::Real(3.5),
        Value::Real(-0.125), Value::Bool(true), Value::Bool(false),
        Value::String(""), Value::String("plain"),
        Value::String("with \"quotes\" and \\slashes\\ and\nnewlines\t!"),
        Value::Enum("NAND"), Value::Ref(Surrogate(17)),
        Value::Ref(Surrogate::Invalid()), Value::Point(3, -4),
        Value::Record({}), Value::List({}),
        Value::List({Value::Int(1), Value::Enum("A"),
                     Value::String("x;y]z}")}),
        Value::Set({Value::Int(3), Value::Int(1)}),
        Value::Matrix(2, 2,
                      {Value::Bool(true), Value::Bool(false),
                       Value::Bool(false), Value::Bool(true)}),
        Value::Record({{"Outer",
                        Value::List({Value::Point(1, 2),
                                     Value::Set({Value::Enum("IN")})})}})));

TEST(ValueCodecTest, MalformedInputsRejected) {
  for (const char* bad :
       {"", "x", "i:", "i:abc", "b:2", "s:\"unterminated", "R{X=}",
        "L[i:1;", "M[2,2][i:1]", "@", "e:", "i:1 trailing", "r:",
        "r:1.5abc", "r: 1.5", "L[r:2x;i:1]", "i:99999999999999999999999",
        "i:-9223372036854775809", "i:-", "@99999999999999999999"}) {
    EXPECT_FALSE(DecodeValue(bad).ok()) << bad;
  }
}

// ---- Full database dump/load ----

class DumpTest : public ::testing::Test {
 protected:
  /// Builds the steel scenario and returns its dump.
  std::string BuildAndDump(Database* db) {
    EXPECT_TRUE(db->ExecuteDdl(schemas::kSteel).ok());
    EXPECT_TRUE(db->CreateClass("Bolts", "BoltType").ok());
    Surrogate bolt = db->CreateObject("BoltType", "Bolts").value();
    EXPECT_TRUE(db->Set(bolt, "Diameter", Value::Int(8)).ok());
    EXPECT_TRUE(db->Set(bolt, "Length", Value::Int(45)).ok());
    Surrogate nut = db->CreateObject("NutType").value();
    EXPECT_TRUE(db->Set(nut, "Diameter", Value::Int(8)).ok());
    EXPECT_TRUE(db->Set(nut, "Length", Value::Int(5)).ok());
    Surrogate girder_if = db->CreateObject("GirderInterface").value();
    EXPECT_TRUE(db->Set(girder_if, "Length", Value::Int(4000)).ok());
    EXPECT_TRUE(db->Set(girder_if, "Height", Value::Int(20)).ok());
    EXPECT_TRUE(db->Set(girder_if, "Width", Value::Int(10)).ok());
    Surrogate gbore = db->CreateSubobject(girder_if, "Bores").value();
    EXPECT_TRUE(db->Set(gbore, "Diameter", Value::Int(9)).ok());
    EXPECT_TRUE(db->Set(gbore, "Length", Value::Int(40)).ok());
    EXPECT_TRUE(db->Set(gbore, "Position", Value::Point(100, 10)).ok());

    Surrogate wcs = db->CreateObject("WeightCarrying_Structure").value();
    EXPECT_TRUE(db->Set(wcs, "Designer", Value::String("Pegels")).ok());
    Surrogate girder = db->CreateSubobject(wcs, "Girders").value();
    EXPECT_TRUE(db->Bind(girder, girder_if, "AllOf_GirderIf").ok());
    Surrogate screwing =
        db->CreateSubrel(wcs, "Screwings", {{"Bores", {gbore}}}).value();
    EXPECT_TRUE(db->Set(screwing, "Strength", Value::Int(75)).ok());
    Surrogate bolt_slot = db->CreateSubobject(screwing, "Bolt").value();
    EXPECT_TRUE(db->Bind(bolt_slot, bolt, "AllOf_BoltType").ok());
    Surrogate nut_slot = db->CreateSubobject(screwing, "Nut").value();
    EXPECT_TRUE(db->Bind(nut_slot, nut, "AllOf_NutType").ok());
    return Dumper::Dump(*db).value();
  }
};

TEST_F(DumpTest, RoundTripPreservesStructureAndSemantics) {
  Database original;
  std::string dump = BuildAndDump(&original);

  Database restored;
  Status loaded = Dumper::Load(dump, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();

  DatabaseStats a = DatabaseStats::Collect(original);
  DatabaseStats b = DatabaseStats::Collect(restored);
  EXPECT_EQ(a.total_objects, b.total_objects);
  EXPECT_EQ(a.plain_objects, b.plain_objects);
  EXPECT_EQ(a.relationship_objects, b.relationship_objects);
  EXPECT_EQ(a.inher_rel_objects, b.inher_rel_objects);
  EXPECT_EQ(a.subobjects, b.subobjects);
  EXPECT_EQ(a.bound_inheritors, b.bound_inheritors);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.per_type, b.per_type);

  // Semantics: inherited reads and constraints behave identically.
  auto find_structure = [](Database& db) {
    return db.store().Extent("WeightCarrying_Structure").front();
  };
  Surrogate wcs = find_structure(restored);
  Surrogate girder = restored.Subclass(wcs, "Girders")->front();
  EXPECT_EQ(restored.Get(girder, "Length")->AsInt(), 4000);
  Status deep = restored.constraints().CheckDeep(wcs);
  // The single-bore screwing violates the 45 = 5 + 40 rule? 45 = 5 + 40
  // holds, so everything checks out.
  EXPECT_TRUE(deep.ok()) << deep.ToString();

  // Classes restored with members.
  EXPECT_EQ(restored.store().ClassMembers("Bolts")->size(), 1u);

  // A second dump of the restored database is byte-identical (canonical
  // form; surrogates were re-assigned in the same order).
  EXPECT_EQ(*Dumper::Dump(restored), dump);
}

TEST_F(DumpTest, LoadRequiresEmptyDatabase) {
  Database original;
  std::string dump = BuildAndDump(&original);
  EXPECT_EQ(Dumper::Load(dump, &original).code(), Code::kFailedPrecondition);
}

TEST_F(DumpTest, MalformedDumpsRejected) {
  Database db;
  EXPECT_EQ(Dumper::Load("garbage", &db).code(), Code::kParseError);
  Database db2;
  EXPECT_EQ(Dumper::Load("caddb-dump 1\nschema 999999\nx", &db2).code(),
            Code::kParseError);
  Database db3;
  EXPECT_EQ(
      Dumper::Load("caddb-dump 1\nschema 0\nZ 1 2 3\nend\n", &db3).code(),
      Code::kParseError);
}

TEST_F(DumpTest, DumpValidatesOnLoadThroughPublicApi) {
  // A dump whose object references an unknown type fails cleanly.
  Database db;
  Status s = Dumper::Load(
      "caddb-dump 1\nschema 0\nO 1 NoSuchType\nend\n", &db);
  EXPECT_EQ(s.code(), Code::kNotFound);
}

TEST_F(DumpTest, VersionManagerStateRoundTrips) {
  Database original;
  ASSERT_TRUE(original
                  .ExecuteDdl(R"(
    obj-type Iface = attributes: L: integer; end Iface;
    inher-rel-type AllOfIface =
      transmitter: object-of-type Iface; inheritor: object; inheriting: L;
    end AllOfIface;
    obj-type Impl = inheritor-in: AllOfIface; attributes: Speed: integer;
    end Impl;
    inher-rel-type SomeOfImpl =
      transmitter: object-of-type Impl; inheritor: object; inheriting: Speed;
    end SomeOfImpl;
    obj-type Slot = inheritor-in: SomeOfImpl; end Slot;
  )")
                  .ok());
  Surrogate iface = original.CreateObject("Iface").value();
  Surrogate v1 = original.CreateObject("Impl").value();
  Surrogate v2 = original.CreateObject("Impl").value();
  ASSERT_TRUE(original.Bind(v1, iface, "AllOfIface").ok());
  ASSERT_TRUE(original.Bind(v2, iface, "AllOfIface").ok());
  ASSERT_TRUE(original.versions().CreateDesignObject("D", "Impl").ok());
  ASSERT_TRUE(original.versions().AddVersion("D", v1).ok());
  ASSERT_TRUE(original.versions().AddVersion("D", v2, {v1}).ok());
  ASSERT_TRUE(
      original.versions().SetState("D", v1, VersionState::kReleased).ok());
  ASSERT_TRUE(original.versions().SetDefaultVersion("D", v2).ok());
  Surrogate slot = original.CreateObject("Slot").value();
  uint64_t binding =
      original.versions().BindGeneric(slot, "D", "SomeOfImpl").value();
  DefaultVersionPolicy policy;
  ASSERT_TRUE(original.versions().ResolveGeneric(binding, policy).ok());

  std::string dump = Dumper::Dump(original).value();
  Database restored;
  Status loaded = Dumper::Load(dump, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();

  // Graph restored: default version, states, history.
  auto names = restored.versions().DesignObjectNames();
  ASSERT_EQ(names.size(), 1u);
  Surrogate new_v2 = *restored.versions().DefaultVersion("D");
  auto released =
      restored.versions().VersionsInState("D", VersionState::kReleased);
  ASSERT_TRUE(released.ok());
  ASSERT_EQ(released->size(), 1u);
  auto history = restored.versions().History("D", new_v2);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 1u);
  // Generic binding restored with its resolution.
  auto generics = restored.versions().GenericBindings();
  ASSERT_EQ(generics.size(), 1u);
  EXPECT_EQ(generics[0].design, "D");
  EXPECT_TRUE(generics[0].resolved_version.valid());
  // And re-resolution after a default change still works post-restore.
  ASSERT_TRUE(
      restored.versions().SetDefaultVersion("D", (*released)[0]).ok());
  auto repicked =
      restored.versions().ResolveGeneric(generics[0].id, policy);
  ASSERT_TRUE(repicked.ok()) << repicked.status().ToString();
  EXPECT_EQ(*repicked, (*released)[0]);
}

TEST_F(DumpTest, RefAttributesRemapped) {
  Database original;
  ASSERT_TRUE(original
                  .ExecuteDdl(R"(
    obj-type Node =
      attributes:
        Next: object-of-type Node;
        Tag: integer;
    end Node;
  )")
                  .ok());
  Surrogate a = original.CreateObject("Node").value();
  Surrogate b = original.CreateObject("Node").value();
  ASSERT_TRUE(original.Set(a, "Next", Value::Ref(b)).ok());
  ASSERT_TRUE(original.Set(b, "Next", Value::Ref(a)).ok());  // cycle is fine
  ASSERT_TRUE(original.Set(a, "Tag", Value::Int(1)).ok());
  ASSERT_TRUE(original.Set(b, "Tag", Value::Int(2)).ok());

  std::string dump = Dumper::Dump(original).value();
  Database restored;
  ASSERT_TRUE(Dumper::Load(dump, &restored).ok());
  auto nodes = restored.store().Extent("Node");
  ASSERT_EQ(nodes.size(), 2u);
  // Follow the ref ring: a' -> b' -> a'.
  Surrogate first = nodes[0];
  Surrogate second = restored.Get(first, "Next")->AsRef();
  EXPECT_NE(first, second);
  EXPECT_EQ(restored.Get(second, "Next")->AsRef(), first);
}

}  // namespace
}  // namespace persist
}  // namespace caddb
