#include "store/store.h"

#include <gtest/gtest.h>

#include "ddl/parser.h"

namespace caddb {
namespace {

/// Store tests run against a small hand-made schema: interfaces with pins,
/// implementations inheriting them, and a wire relationship.
class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : store_(&catalog_) {
    Status parsed = ddl::Parser::ParseSchema(R"(
      obj-type Pin =
        attributes:
          InOut: (IN, OUT);
      end Pin;
      rel-type Wire =
        relates:
          Pin1, Pin2: object-of-type Pin;
        attributes:
          Len: integer;
      end Wire;
      obj-type Iface =
        attributes:
          L, W: integer;
        types-of-subclasses:
          Pins: Pin;
      end Iface;
      inher-rel-type AllOfIface =
        transmitter: object-of-type Iface;
        inheritor:   object;
        inheriting:  L, Pins;
      end AllOfIface;
      obj-type Impl =
        inheritor-in: AllOfIface;
        attributes:
          Cost: integer;
          Owner: object-of-type Iface;
        types-of-subclasses:
          Parts: Pin;
        types-of-subrels:
          Wires: Wire;
      end Impl;
    )",
                                             &catalog_);
    EXPECT_TRUE(parsed.ok()) << parsed.ToString();
    EXPECT_TRUE(catalog_.Validate().ok());
  }

  Surrogate Make(const std::string& type) {
    auto r = store_.CreateObject(type);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : Surrogate::Invalid();
  }

  Catalog catalog_;
  ObjectStore store_;
};

TEST_F(StoreTest, SurrogatesAreUniqueAndMonotone) {
  Surrogate a = Make("Iface");
  Surrogate b = Make("Iface");
  Surrogate c = Make("Pin");
  EXPECT_LT(a.id, b.id);
  EXPECT_LT(b.id, c.id);
  EXPECT_EQ(store_.size(), 3u);
}

TEST_F(StoreTest, CreateUnknownTypeFails) {
  EXPECT_EQ(store_.CreateObject("Nope").status().code(), Code::kNotFound);
}

TEST_F(StoreTest, ClassMembershipAndTypeCheck) {
  ASSERT_TRUE(store_.CreateClass("Ifaces", "Iface").ok());
  EXPECT_EQ(store_.CreateClass("Ifaces", "Iface").code(),
            Code::kAlreadyExists);
  EXPECT_EQ(store_.CreateClass("Bad", "Nope").code(), Code::kNotFound);
  auto obj = store_.CreateObject("Iface", "Ifaces");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(store_.CreateObject("Pin", "Ifaces").status().code(),
            Code::kTypeMismatch);
  auto members = store_.ClassMembers("Ifaces");
  ASSERT_TRUE(members.ok());
  ASSERT_EQ(members->size(), 1u);
  EXPECT_EQ((*members)[0], *obj);
  EXPECT_EQ(*store_.ClassType("Ifaces"), "Iface");
}

TEST_F(StoreTest, AttributeDomainEnforced) {
  Surrogate iface = Make("Iface");
  EXPECT_TRUE(store_.SetAttribute(iface, "L", Value::Int(5)).ok());
  EXPECT_EQ(store_.SetAttribute(iface, "L", Value::Enum("x")).code(),
            Code::kTypeMismatch);
  EXPECT_EQ(store_.SetAttribute(iface, "Nope", Value::Int(1)).code(),
            Code::kNotFound);
  EXPECT_EQ(store_.GetLocalAttribute(iface, "L")->AsInt(), 5);
  EXPECT_TRUE(store_.GetLocalAttribute(iface, "W")->is_null());
  EXPECT_EQ(store_.GetLocalAttribute(iface, "Nope").status().code(),
            Code::kNotFound);
}

TEST_F(StoreTest, RefAttributeTargetTypeEnforced) {
  Surrogate impl = Make("Impl");
  Surrogate iface = Make("Iface");
  Surrogate pin = Make("Pin");
  EXPECT_TRUE(
      store_.SetAttribute(impl, "Owner", Value::Ref(iface)).ok());
  EXPECT_EQ(store_.SetAttribute(impl, "Owner", Value::Ref(pin)).code(),
            Code::kTypeMismatch);
  EXPECT_EQ(
      store_.SetAttribute(impl, "Owner", Value::Ref(Surrogate(999))).code(),
      Code::kNotFound);
  // Null reference is fine (unset).
  EXPECT_TRUE(store_.SetAttribute(impl, "Owner",
                                  Value::Ref(Surrogate::Invalid()))
                  .ok());
}

TEST_F(StoreTest, SubobjectsLiveInDeclaredSubclasses) {
  Surrogate iface = Make("Iface");
  auto pin = store_.CreateSubobject(iface, "Pins");
  ASSERT_TRUE(pin.ok());
  auto obj = store_.Get(*pin);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ((*obj)->type_name(), "Pin");
  EXPECT_EQ((*obj)->parent(), iface);
  EXPECT_EQ((*obj)->parent_subclass(), "Pins");
  EXPECT_EQ(store_.CreateSubobject(iface, "Nope").status().code(),
            Code::kNotFound);
  // Pin has no subclasses at all.
  EXPECT_EQ(store_.CreateSubobject(*pin, "Pins").status().code(),
            Code::kNotFound);
}

TEST_F(StoreTest, InheritedSubclassRejectsLocalCreation) {
  Surrogate impl = Make("Impl");
  EXPECT_EQ(store_.CreateSubobject(impl, "Pins").status().code(),
            Code::kInheritedReadOnly);
  EXPECT_TRUE(store_.CreateSubobject(impl, "Parts").ok());
}

TEST_F(StoreTest, InheritedAttributeRejectsWrite) {
  Surrogate impl = Make("Impl");
  EXPECT_EQ(store_.SetAttribute(impl, "L", Value::Int(3)).code(),
            Code::kInheritedReadOnly);
  EXPECT_TRUE(store_.SetAttribute(impl, "Cost", Value::Int(3)).ok());
}

TEST_F(StoreTest, RelationshipParticipantValidation) {
  Surrogate p1 = Make("Pin");
  Surrogate p2 = Make("Pin");
  Surrogate iface = Make("Iface");
  // Valid.
  auto wire = store_.CreateRelationship("Wire",
                                        {{"Pin1", {p1}}, {"Pin2", {p2}}});
  ASSERT_TRUE(wire.ok());
  EXPECT_TRUE(store_.SetAttribute(*wire, "Len", Value::Int(4)).ok());
  // Unknown role.
  EXPECT_EQ(store_
                .CreateRelationship(
                    "Wire", {{"Pin1", {p1}}, {"Pin2", {p2}}, {"Pin3", {p1}}})
                .status()
                .code(),
            Code::kInvalidArgument);
  // Missing role.
  EXPECT_EQ(store_.CreateRelationship("Wire", {{"Pin1", {p1}}})
                .status()
                .code(),
            Code::kInvalidArgument);
  // Cardinality violation on single-valued role.
  EXPECT_EQ(store_
                .CreateRelationship("Wire",
                                    {{"Pin1", {p1, p2}}, {"Pin2", {p2}}})
                .status()
                .code(),
            Code::kInvalidArgument);
  // Participant type violation.
  EXPECT_EQ(store_
                .CreateRelationship("Wire",
                                    {{"Pin1", {iface}}, {"Pin2", {p2}}})
                .status()
                .code(),
            Code::kTypeMismatch);
}

TEST_F(StoreTest, WhereUsedIndexTracksRelationships) {
  Surrogate p1 = Make("Pin");
  Surrogate p2 = Make("Pin");
  auto wire =
      store_.CreateRelationship("Wire", {{"Pin1", {p1}}, {"Pin2", {p2}}});
  ASSERT_TRUE(wire.ok());
  auto refs = store_.ReferencingRelationships(p1);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0], *wire);
  ASSERT_TRUE(store_.Delete(*wire).ok());
  EXPECT_TRUE(store_.ReferencingRelationships(p1).empty());
  EXPECT_TRUE(store_.Exists(p1)) << "participants survive the relationship";
}

TEST_F(StoreTest, SubrelMembersBelongToOwner) {
  Surrogate impl = Make("Impl");
  Surrogate p1 = Make("Pin");
  Surrogate p2 = Make("Pin");
  auto wire =
      store_.CreateSubrel(impl, "Wires", {{"Pin1", {p1}}, {"Pin2", {p2}}});
  ASSERT_TRUE(wire.ok());
  auto obj = store_.Get(*wire);
  EXPECT_EQ((*obj)->parent(), impl);
  auto owner = store_.Get(impl);
  ASSERT_NE((*owner)->Subrel("Wires"), nullptr);
  EXPECT_EQ((*owner)->Subrel("Wires")->size(), 1u);
  EXPECT_EQ(store_.CreateSubrel(impl, "Nope", {}).status().code(),
            Code::kNotFound);
}

TEST_F(StoreTest, DeleteCascadesThroughSubobjectsAndRelationships) {
  Surrogate iface = Make("Iface");
  auto pin1 = store_.CreateSubobject(iface, "Pins");
  auto pin2 = store_.CreateSubobject(iface, "Pins");
  ASSERT_TRUE(pin1.ok() && pin2.ok());
  // An external relationship touching a doomed pin dies with it.
  Surrogate outside = Make("Pin");
  auto wire = store_.CreateRelationship(
      "Wire", {{"Pin1", {*pin1}}, {"Pin2", {outside}}});
  ASSERT_TRUE(wire.ok());
  size_t before = store_.size();
  ASSERT_TRUE(store_.Delete(iface).ok());
  EXPECT_EQ(store_.size(), before - 4);  // iface + 2 pins + wire
  EXPECT_FALSE(store_.Exists(iface));
  EXPECT_FALSE(store_.Exists(*pin1));
  EXPECT_FALSE(store_.Exists(*wire));
  EXPECT_TRUE(store_.Exists(outside));
  EXPECT_TRUE(store_.ReferencingRelationships(outside).empty());
  EXPECT_TRUE(store_.Extent("Iface").empty());
}

TEST_F(StoreTest, DeleteSubobjectDetachesFromParent) {
  Surrogate iface = Make("Iface");
  auto pin1 = store_.CreateSubobject(iface, "Pins");
  auto pin2 = store_.CreateSubobject(iface, "Pins");
  ASSERT_TRUE(store_.Delete(*pin1).ok());
  auto owner = store_.Get(iface);
  EXPECT_EQ((*owner)->Subclass("Pins")->size(), 1u);
  EXPECT_EQ((*owner)->Subclass("Pins")->front(), *pin2);
}

TEST_F(StoreTest, DeleteTransmitterRestrictedByDefault) {
  Surrogate iface = Make("Iface");
  Surrogate impl = Make("Impl");
  ASSERT_TRUE(store_.CreateInherRel("AllOfIface", iface, impl).ok());
  Status restricted = store_.Delete(iface);
  EXPECT_EQ(restricted.code(), Code::kFailedPrecondition);
  EXPECT_TRUE(store_.Exists(iface)) << "nothing deleted on restrict";
  // Detach policy unbinds the implementation and deletes.
  ASSERT_TRUE(
      store_.Delete(iface, ObjectStore::DeletePolicy::kDetachInheritors)
          .ok());
  EXPECT_FALSE(store_.Exists(iface));
  EXPECT_TRUE(store_.Exists(impl));
  EXPECT_FALSE(store_.Get(impl).value()->bound_inher_rel().valid());
}

TEST_F(StoreTest, DeleteInheritorTakesBindingAlong) {
  Surrogate iface = Make("Iface");
  Surrogate impl = Make("Impl");
  auto rel = store_.CreateInherRel("AllOfIface", iface, impl);
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(store_.Delete(impl).ok());
  EXPECT_FALSE(store_.Exists(*rel));
  EXPECT_TRUE(store_.Exists(iface));
  EXPECT_TRUE(store_.InherRelsOfTransmitter(iface).empty());
}

TEST_F(StoreTest, BindingRules) {
  Surrogate iface = Make("Iface");
  Surrogate iface2 = Make("Iface");
  Surrogate impl = Make("Impl");
  Surrogate pin = Make("Pin");
  // Transmitter type mismatch.
  EXPECT_EQ(store_.CreateInherRel("AllOfIface", pin, impl).status().code(),
            Code::kTypeMismatch);
  // Inheritor's type must declare inheritor-in.
  EXPECT_EQ(store_.CreateInherRel("AllOfIface", iface, pin).status().code(),
            Code::kFailedPrecondition);
  // Valid bind.
  ASSERT_TRUE(store_.CreateInherRel("AllOfIface", iface, impl).ok());
  // Double bind.
  EXPECT_EQ(store_.CreateInherRel("AllOfIface", iface2, impl).status().code(),
            Code::kAlreadyExists);
  // Unbind then rebind.
  ASSERT_TRUE(store_.Unbind(impl).ok());
  EXPECT_EQ(store_.Unbind(impl).code(), Code::kFailedPrecondition);
  EXPECT_TRUE(store_.CreateInherRel("AllOfIface", iface2, impl).ok());
}

TEST_F(StoreTest, ExtentTracksAllInstancesIncludingSubobjects) {
  Surrogate iface = Make("Iface");
  store_.CreateSubobject(iface, "Pins").value();
  Make("Pin");
  EXPECT_EQ(store_.Extent("Pin").size(), 2u);
  EXPECT_EQ(store_.Extent("Iface").size(), 1u);
  EXPECT_TRUE(store_.Extent("Impl").empty());
}

}  // namespace
}  // namespace caddb
