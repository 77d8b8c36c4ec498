// Tests for the static integrity analyzer (`caddb check`): schema passes
// (CAD0xx) with locations and fix-it hints, store fsck passes (CAD1xx) on
// deliberately corrupted stores, renderer output, and the Database wiring
// (eager DDL validation, Check()).

#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/diagnostics.h"
#include "core/database.h"
#include "core/paper_schemas.h"

namespace caddb {
namespace analysis {
namespace {

size_t CountCode(const DiagnosticBag& bag, const std::string& code) {
  return static_cast<size_t>(
      std::count_if(bag.diagnostics().begin(), bag.diagnostics().end(),
                    [&code](const Diagnostic& d) { return d.code == code; }));
}

const Diagnostic* FindCode(const DiagnosticBag& bag, const std::string& code) {
  for (const Diagnostic& d : bag.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Clean schemas: the analyzer must not cry wolf.
// ---------------------------------------------------------------------------

TEST(SchemaAnalysisTest, GatesSchemasAreClean) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(schemas::kGatesBase).ok());
  ASSERT_TRUE(db.ExecuteDdl(schemas::kGatesInterfaces).ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  EXPECT_TRUE(bag.empty()) << bag.RenderText();
}

TEST(SchemaAnalysisTest, SteelSchemaIsClean) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(schemas::kSteel).ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  EXPECT_TRUE(bag.empty()) << bag.RenderText();
}

// (The clean-store counterpart lives in CorruptedStoreTest below: the
// fixture asserts it is clean before each test corrupts it.)

// ---------------------------------------------------------------------------
// CAD001: inheritance cycles
// ---------------------------------------------------------------------------

TEST(SchemaAnalysisTest, InheritanceCycleReportedExactlyOnce) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("obj-type A =\n"
                            "  inheritor-in: RA;\n"
                            "  attributes:\n"
                            "    X: integer;\n"
                            "end A;\n"
                            "obj-type B =\n"
                            "  inheritor-in: RB;\n"
                            "  attributes:\n"
                            "    Y: integer;\n"
                            "end B;\n"
                            "inher-rel-type RA =\n"
                            "  transmitter: object-of-type B;\n"
                            "  inheritor: object;\n"
                            "  inheriting: Y;\n"
                            "end RA;\n"
                            "inher-rel-type RB =\n"
                            "  transmitter: object-of-type A;\n"
                            "  inheritor: object;\n"
                            "  inheriting: X;\n"
                            "end RB;\n")
                  .ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  // One cycle, reported once no matter how many entry points it has.
  EXPECT_EQ(CountCode(bag, "CAD001"), 1u) << bag.RenderText();
  const Diagnostic* d = FindCode(bag, "CAD001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("A -> "), std::string::npos) << d->message;
  EXPECT_TRUE(d->loc.valid());
}

// ---------------------------------------------------------------------------
// CAD002: dangling transmitter, with DDL location and nearest-name hint
// ---------------------------------------------------------------------------

TEST(SchemaAnalysisTest, DanglingTransmitterHasLocationAndHint) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("obj-type Gate =\n"                      // line 1
                            "  attributes:\n"                        // line 2
                            "    Length: integer;\n"                 // line 3
                            "end Gate;\n"                            // line 4
                            "obj-type User =\n"                      // line 5
                            "  inheritor-in: AllOf_G;\n"             // line 6
                            "  attributes:\n"                        // line 7
                            "    Z: integer;\n"                      // line 8
                            "end User;\n"                            // line 9
                            "inher-rel-type AllOf_G =\n"             // line 10
                            "  transmitter: object-of-type Gatee;\n" // line 11
                            "  inheritor: object;\n"                 // line 12
                            "  inheriting: Length;\n"                // line 13
                            "end AllOf_G;\n")
                  .ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  const Diagnostic* d = FindCode(bag, "CAD002");
  ASSERT_NE(d, nullptr) << bag.RenderText();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->loc.line, 11);
  EXPECT_EQ(d->loc.column, 31);  // first char of 'Gatee'
  EXPECT_EQ(d->entity, "inher-rel-type AllOf_G");
  EXPECT_NE(d->hint.find("'Gate'"), std::string::npos) << d->hint;
}

// ---------------------------------------------------------------------------
// CAD004/CAD005: inheritor-in references
// ---------------------------------------------------------------------------

TEST(SchemaAnalysisTest, UnknownInheritorInAndTypeMismatch) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("obj-type T =\n"
                            "  attributes:\n"
                            "    A: integer;\n"
                            "end T;\n"
                            "obj-type Lost =\n"
                            "  inheritor-in: NoSuchRel;\n"
                            "  attributes:\n"
                            "    B: integer;\n"
                            "end Lost;\n"
                            "obj-type Wrong =\n"
                            "  inheritor-in: ROnly;\n"
                            "  attributes:\n"
                            "    C: integer;\n"
                            "end Wrong;\n"
                            "obj-type Meant =\n"
                            "  attributes:\n"
                            "    D: integer;\n"
                            "end Meant;\n"
                            "inher-rel-type ROnly =\n"
                            "  transmitter: object-of-type T;\n"
                            "  inheritor: object-of-type Meant;\n"
                            "  inheriting: A;\n"
                            "end ROnly;\n")
                  .ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  const Diagnostic* unknown = FindCode(bag, "CAD004");
  ASSERT_NE(unknown, nullptr) << bag.RenderText();
  EXPECT_EQ(unknown->entity, "obj-type Lost");
  const Diagnostic* mismatch = FindCode(bag, "CAD005");
  ASSERT_NE(mismatch, nullptr) << bag.RenderText();
  EXPECT_EQ(mismatch->entity, "obj-type Wrong");
  // 'Meant' never declares inheritor-in ROnly, so the restriction is
  // unsatisfiable too.
  EXPECT_TRUE(bag.Has("CAD014")) << bag.RenderText();
}

// ---------------------------------------------------------------------------
// CAD006: permeability clause naming nothing the transmitter provides
// ---------------------------------------------------------------------------

TEST(SchemaAnalysisTest, BadPermeabilityItemGetsHint) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("obj-type Plate =\n"
                            "  attributes:\n"
                            "    Thickness: integer;\n"
                            "end Plate;\n"
                            "obj-type Part =\n"
                            "  inheritor-in: AllOf_Plate;\n"
                            "  attributes:\n"
                            "    Z: integer;\n"
                            "end Part;\n"
                            "inher-rel-type AllOf_Plate =\n"
                            "  transmitter: object-of-type Plate;\n"
                            "  inheritor: object;\n"
                            "  inheriting: Thicknes;\n"
                            "end AllOf_Plate;\n")
                  .ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  const Diagnostic* d = FindCode(bag, "CAD006");
  ASSERT_NE(d, nullptr) << bag.RenderText();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_TRUE(d->loc.valid());
  EXPECT_NE(d->hint.find("'Thickness'"), std::string::npos) << d->hint;
}

// ---------------------------------------------------------------------------
// CAD007: shadowing across a multi-level hierarchy
// ---------------------------------------------------------------------------

TEST(SchemaAnalysisTest, ShadowingAcrossTwoLevelsNamesTheOrigin) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("obj-type Top =\n"
                            "  attributes:\n"
                            "    A: integer;\n"
                            "end Top;\n"
                            "obj-type Mid =\n"
                            "  inheritor-in: RTop;\n"
                            "  attributes:\n"
                            "    M: integer;\n"
                            "end Mid;\n"
                            "obj-type Leaf =\n"
                            "  inheritor-in: RMid;\n"
                            "  attributes:\n"
                            "    A: integer;\n"  // shadows Top.A through RMid
                            "end Leaf;\n"
                            "inher-rel-type RTop =\n"
                            "  transmitter: object-of-type Top;\n"
                            "  inheritor: object;\n"
                            "  inheriting: A;\n"
                            "end RTop;\n"
                            "inher-rel-type RMid =\n"
                            "  transmitter: object-of-type Mid;\n"
                            "  inheritor: object;\n"
                            "  inheriting: A, M;\n"
                            "end RMid;\n")
                  .ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  const Diagnostic* d = FindCode(bag, "CAD007");
  ASSERT_NE(d, nullptr) << bag.RenderText();
  EXPECT_EQ(d->entity, "obj-type Leaf");
  // The item is locally declared two levels up: provenance must say Top.
  EXPECT_NE(d->message.find("'Top'"), std::string::npos) << d->message;
  EXPECT_TRUE(d->loc.valid());
}

// ---------------------------------------------------------------------------
// CAD008: constraint expressions referencing unknown names
// ---------------------------------------------------------------------------

TEST(SchemaAnalysisTest, ConstraintUnknownPathHeadIsError) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("obj-type Box =\n"
                            "  attributes:\n"
                            "    Width, Height: integer;\n"
                            "    Corner: Point;\n"
                            "  constraints:\n"
                            "    Width > 0;\n"
                            "    Heigth.X > 0;\n"  // typo, multi-segment
                            "end Box;\n")
                  .ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  const Diagnostic* d = FindCode(bag, "CAD008");
  ASSERT_NE(d, nullptr) << bag.RenderText();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("'Heigth'"), std::string::npos) << d->message;
  EXPECT_NE(d->hint.find("'Height'"), std::string::npos) << d->hint;
  EXPECT_TRUE(d->loc.valid());
}

TEST(SchemaAnalysisTest, ConstraintUnknownBareNameIsWarningOnly) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("obj-type Lamp =\n"
                            "  attributes:\n"
                            "    Mode: (RED, GREEN);\n"
                            "  constraints:\n"
                            "    Mode = RED;\n"    // legitimate enum symbol
                            "    Mode = REDD;\n"   // typo: unknown bare name
                            "end Lamp;\n")
                  .ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  // Exactly one finding: `RED` is a declared symbol, `REDD` is not.
  EXPECT_EQ(CountCode(bag, "CAD008"), 1u) << bag.RenderText();
  const Diagnostic* d = FindCode(bag, "CAD008");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("'REDD'"), std::string::npos) << d->message;
}

// ---------------------------------------------------------------------------
// CAD009-CAD013: dangling element types, rel-types, roles, domains, unused
// inheritance relationship types
// ---------------------------------------------------------------------------

TEST(SchemaAnalysisTest, DanglingStructuralReferences) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl("obj-type Pin =\n"
                            "  attributes:\n"
                            "    Id: integer;\n"
                            "end Pin;\n"
                            "rel-type Wire =\n"
                            "  relates:\n"
                            "    P1, P2: object-of-type Pinn;\n"
                            "end Wire;\n"
                            "obj-type Board =\n"
                            "  attributes:\n"
                            "    Kind: Materiall;\n"
                            "  types-of-subclasses:\n"
                            "    Pins: PinType;\n"
                            "  types-of-subrels:\n"
                            "    Wires: WireTyp;\n"
                            "end Board;\n"
                            "domain Material = (wood, steel);\n"
                            "inher-rel-type Orphan =\n"
                            "  transmitter: object-of-type Pin;\n"
                            "  inheritor: object;\n"
                            "  inheriting: Id;\n"
                            "end Orphan;\n")
                  .ok());
  DiagnosticBag bag = AnalyzeSchema(db.catalog());
  EXPECT_TRUE(bag.Has("CAD009")) << bag.RenderText();  // Pins: PinType
  EXPECT_TRUE(bag.Has("CAD010")) << bag.RenderText();  // Wires: WireTyp
  EXPECT_TRUE(bag.Has("CAD011")) << bag.RenderText();  // P1/P2: Pinn
  EXPECT_TRUE(bag.Has("CAD012")) << bag.RenderText();  // Kind: Materiall
  EXPECT_TRUE(bag.Has("CAD013")) << bag.RenderText();  // Orphan unused
  const Diagnostic* domain = FindCode(bag, "CAD012");
  ASSERT_NE(domain, nullptr);
  EXPECT_NE(domain->hint.find("'Material'"), std::string::npos)
      << domain->hint;
}

// ---------------------------------------------------------------------------
// Store fsck on deliberately corrupted stores
// ---------------------------------------------------------------------------

class CorruptedStoreTest : public ::testing::Test {
 protected:
  CorruptedStoreTest() {
    EXPECT_TRUE(db_.ExecuteDdl(schemas::kGatesBase).ok());
    EXPECT_TRUE(db_.ExecuteDdl(schemas::kGatesInterfaces).ok());
    // A complex Gate with local pins and a wire between them...
    gate_ = db_.CreateObject("Gate").value();
    pin1_ = db_.CreateSubobject(gate_, "Pins").value();
    pin2_ = db_.CreateSubobject(gate_, "Pins").value();
    wire_ = db_.CreateSubrel(gate_, "Wires",
                             {{"Pin1", {pin1_}}, {"Pin2", {pin2_}}})
                .value();
    // ...and an implementation bound to its interface (Length inherited).
    iface_ = db_.CreateObject("GateInterface").value();
    EXPECT_TRUE(db_.Set(iface_, "Length", Value::Int(4)).ok());
    impl_ = db_.CreateObject("GateImplementation").value();
    rel_ = db_.Bind(impl_, iface_, "AllOf_GateInterface").value();
  }

  DiagnosticBag Fsck() { return AnalyzeStore(db_.store(), &db_.inheritance()); }

  Database db_;
  Surrogate gate_, pin1_, pin2_, wire_, iface_, impl_, rel_;
};

TEST_F(CorruptedStoreTest, UncorruptedStoreIsClean) {
  DiagnosticBag bag = Fsck();
  EXPECT_TRUE(bag.empty()) << bag.RenderText();
  DiagnosticBag all = db_.Check();
  EXPECT_TRUE(all.empty()) << all.RenderText();
}

TEST_F(CorruptedStoreTest, DanglingParticipantDetected) {
  db_.store().GetMutable(wire_)->SetParticipants("Pin1", {Surrogate(9999)});
  DiagnosticBag bag = Fsck();
  EXPECT_TRUE(bag.Has("CAD101")) << bag.RenderText();
}

TEST_F(CorruptedStoreTest, OrphanedSubobjectDetected) {
  // Drop the pin from its parent's member list; its back-pointer survives.
  db_.store().GetMutable(gate_)->RemoveFromSubclass("Pins", pin1_);
  DiagnosticBag bag = Fsck();
  EXPECT_TRUE(bag.Has("CAD102")) << bag.RenderText();
}

TEST_F(CorruptedStoreTest, InheritedValueWriteDetected) {
  // Length is inherited in GateImplementation: a locally stored value is
  // unreachable through the API and therefore store corruption.
  db_.store().GetMutable(impl_)->SetLocalAttribute("Length", Value::Int(99));
  DiagnosticBag bag = Fsck();
  const Diagnostic* d = FindCode(bag, "CAD103");
  ASSERT_NE(d, nullptr) << bag.RenderText();
  EXPECT_NE(d->message.find("'Length'"), std::string::npos) << d->message;
}

TEST_F(CorruptedStoreTest, BindingAsymmetryDetected) {
  db_.store().GetMutable(impl_)->set_bound_inher_rel(Surrogate::Invalid());
  DiagnosticBag bag = Fsck();
  EXPECT_TRUE(bag.Has("CAD105")) << bag.RenderText();
}

TEST_F(CorruptedStoreTest, IndexInconsistencyDetected) {
  db_.store().GetMutable(iface_)->set_class_name("NoSuchClass");
  DiagnosticBag bag = Fsck();
  EXPECT_TRUE(bag.Has("CAD106")) << bag.RenderText();
}

TEST_F(CorruptedStoreTest, StaleCacheEntryDetected) {
  db_.inheritance().EnableCache(true);
  // Warm the cache through the inheritance chain.
  ASSERT_TRUE(db_.Get(impl_, "Length").ok());
  // Mutate the transmitter *behind the store's back*: DbObject mutators do
  // not bump the per-object version, so the entry's dependency metadata
  // still validates while the payload is wrong.
  db_.store().GetMutable(iface_)->SetLocalAttribute("Length", Value::Int(7));
  DiagnosticBag bag = Fsck();
  const Diagnostic* d = FindCode(bag, "CAD107");
  ASSERT_NE(d, nullptr) << bag.RenderText();
  EXPECT_NE(d->message.find("Length"), std::string::npos) << d->message;
}

// ---------------------------------------------------------------------------
// Renderers and ordering
// ---------------------------------------------------------------------------

/// Minimal JSON well-formedness scan: strings (with escapes) are skipped,
/// braces/brackets must balance and close in order.
bool JsonBalanced(const std::string& s) {
  std::string stack;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') stack.push_back(c);
    else if (c == '}') {
      if (stack.empty() || stack.back() != '{') return false;
      stack.pop_back();
    } else if (c == ']') {
      if (stack.empty() || stack.back() != '[') return false;
      stack.pop_back();
    }
  }
  return !in_string && stack.empty();
}

TEST(DiagnosticsRenderTest, JsonIsWellFormedAndEscaped) {
  DiagnosticBag bag;
  bag.Add("CAD008", Severity::kWarning, "references \"weird\\name\"\n",
          {3, 7}, "obj-type \"Q\"", "did you mean 'X'?");
  bag.Add("CAD001", Severity::kError, "cycle", {}, "obj-type A");
  bag.Sort();
  std::string json = bag.RenderJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\\\"weird\\\\name\\\"\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos) << json;
  // Unlocated findings carry no line/column keys.
  EXPECT_NE(json.find("\"code\":\"CAD001\",\"severity\":\"error\","
                      "\"message\":\"cycle\",\"entity\":"),
            std::string::npos)
      << json;
}

TEST(DiagnosticsRenderTest, SortPutsErrorsFirstThenLines) {
  DiagnosticBag bag;
  bag.Add("CAD013", Severity::kWarning, "w", {2, 1}, "x");
  bag.Add("CAD009", Severity::kError, "late", {9, 1}, "x");
  bag.Add("CAD004", Severity::kError, "early", {4, 1}, "x");
  bag.Sort();
  ASSERT_EQ(bag.size(), 3u);
  EXPECT_EQ(bag.diagnostics()[0].code, "CAD004");
  EXPECT_EQ(bag.diagnostics()[1].code, "CAD009");
  EXPECT_EQ(bag.diagnostics()[2].code, "CAD013");
  EXPECT_EQ(bag.Summary(), "2 errors, 1 warning");
}

TEST(DiagnosticsRenderTest, TextFormatCarriesLocationAndHint) {
  DiagnosticBag bag;
  bag.Add("CAD002", Severity::kError, "unknown transmitter type 'Gatee'",
          {11, 33}, "inher-rel-type AllOf_G", "did you mean 'Gate'?");
  std::string text = bag.RenderText();
  EXPECT_NE(text.find("CAD002 error: unknown transmitter type 'Gatee' "
                      "[inher-rel-type AllOf_G @ line 11, column 33]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("    hint: did you mean 'Gate'?"), std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Database wiring
// ---------------------------------------------------------------------------

TEST(DatabaseAnalysisTest, EagerDdlValidationFailsOnBrokenSchema) {
  Database db;
  db.set_eager_ddl_validation(true);
  Status s = db.ExecuteDdl("obj-type U =\n"
                           "  inheritor-in: Nowhere;\n"
                           "  attributes:\n"
                           "    A: integer;\n"
                           "end U;\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CAD004"), std::string::npos) << s.message();
  // Analyzer warnings alone never fail eager validation.
  Database warn_only;
  warn_only.set_eager_ddl_validation(true);
  EXPECT_TRUE(warn_only
                  .ExecuteDdl("obj-type T =\n"
                              "  attributes:\n"
                              "    A: integer;\n"
                              "end T;\n"
                              "inher-rel-type Unused =\n"
                              "  transmitter: object-of-type T;\n"
                              "  inheritor: object;\n"
                              "  inheriting: A;\n"
                              "end Unused;\n")
                  .ok());
}

TEST(CodeRegistryTest, RegistryIsSortedUniqueAndDescribed) {
  const std::vector<DiagnosticCodeInfo>& registry = CodeRegistry();
  ASSERT_FALSE(registry.empty());
  for (size_t i = 0; i < registry.size(); ++i) {
    EXPECT_NE(registry[i].code, nullptr);
    EXPECT_NE(registry[i].summary, nullptr);
    EXPECT_GT(std::string(registry[i].summary).size(), 0u)
        << registry[i].code << " has no summary";
    if (i > 0) {
      EXPECT_LT(std::string(registry[i - 1].code),
                std::string(registry[i].code))
          << "registry must stay sorted and duplicate-free";
    }
  }
}

TEST(CodeRegistryTest, EveryEmittedCodeFamilyIsRegistered) {
  // The codes the analyzers and the disk verifier emit today. A new code
  // added to any emitter must land in CodeRegistry() — add it there AND
  // here. FindCodeInfo must also miss on junk.
  const char* emitted[] = {
      // schema analysis
      "CAD001", "CAD002", "CAD003", "CAD004", "CAD005", "CAD006", "CAD007",
      "CAD008", "CAD009", "CAD010", "CAD011", "CAD012", "CAD013", "CAD014",
      // store fsck
      "CAD101", "CAD102", "CAD103", "CAD104", "CAD105", "CAD106", "CAD107",
      // replication divergence
      "CAD201", "CAD202", "CAD203", "CAD204", "CAD205",
      // offline disk verification
      "CAD301", "CAD302", "CAD303", "CAD304", "CAD305", "CAD306", "CAD307",
      "CAD308", "CAD309", "CAD310", "CAD311", "CAD312", "CAD313", "CAD314",
      "CAD315", "CAD316", "CAD317", "CAD318", "CAD319", "CAD320", "CAD321",
      "CAD322", "CAD323",
  };
  for (const char* code : emitted) {
    EXPECT_NE(FindCodeInfo(code), nullptr) << code << " is not registered";
  }
  EXPECT_EQ(FindCodeInfo("CAD999"), nullptr);
  EXPECT_EQ(FindCodeInfo(""), nullptr);
}

TEST(DatabaseAnalysisTest, CheckMergesSchemaAndStoreFindings) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(schemas::kGatesBase).ok());
  ASSERT_TRUE(db.ExecuteDdl("obj-type Odd =\n"
                            "  inheritor-in: Missing;\n"
                            "  attributes:\n"
                            "    A: integer;\n"
                            "end Odd;\n")
                  .ok());
  Surrogate g = db.CreateObject("SimpleGate").value();
  db.store().GetMutable(g)->set_class_name("Ghost");
  DiagnosticBag bag = db.Check();
  EXPECT_TRUE(bag.Has("CAD004")) << bag.RenderText();  // schema finding
  EXPECT_TRUE(bag.Has("CAD106")) << bag.RenderText();  // store finding
}

}  // namespace
}  // namespace analysis
}  // namespace caddb
