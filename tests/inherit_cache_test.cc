#include <gtest/gtest.h>

#include "core/database.h"
#include "core/stats.h"
#include "inherit/inheritance.h"

namespace caddb {
namespace {

/// Resolution-cache tests on a 4-hop inheritance chain (two independent
/// copies of it, so cross-chain isolation is observable):
///   L0 (A, B) --R1{A}--> L1 --R2{A}--> L2 --R3{A}--> L3 --R4{A}--> L4
class InheritCacheTest : public ::testing::Test {
 protected:
  static constexpr int kDepth = 4;

  InheritCacheTest() {
    std::string ddl = "obj-type L0 = attributes: A, B: integer; end L0;\n";
    for (int i = 1; i <= kDepth; ++i) {
      const std::string prev = "L" + std::to_string(i - 1);
      const std::string cur = "L" + std::to_string(i);
      const std::string rel = "R" + std::to_string(i);
      ddl += "inher-rel-type " + rel + " = transmitter: object-of-type " +
             prev + "; inheritor: object; inheriting: A; end " + rel + ";\n";
      ddl += "obj-type " + cur + " = inheritor-in: " + rel +
             "; attributes: C" + std::to_string(i) + ": integer; end " + cur +
             ";\n";
    }
    Status parsed = db_.ExecuteDdl(ddl);
    EXPECT_TRUE(parsed.ok()) << parsed.ToString();
    for (auto* chain : {&chain1_, &chain2_}) {
      for (int i = 0; i <= kDepth; ++i) {
        chain->push_back(db_.CreateObject("L" + std::to_string(i)).value());
      }
    }
  }

  /// Binds every link of `chain` and seeds the root's A.
  void BindChain(std::vector<Surrogate>& chain, int64_t root_value) {
    ASSERT_TRUE(db_.Set(chain[0], "A", Value::Int(root_value)).ok());
    for (int i = 1; i <= kDepth; ++i) {
      ASSERT_TRUE(
          db_.Bind(chain[i], chain[i - 1], "R" + std::to_string(i)).ok());
    }
  }

  InheritanceManager& inh() { return db_.inheritance(); }

  Database db_;
  std::vector<Surrogate> chain1_, chain2_;
  int64_t tick_ = 1000;
};

// ---- Satellite 1: the Unbind staleness regression ----

TEST_F(InheritCacheTest, UnbindInvalidatesCachedRead) {
  ASSERT_TRUE(db_.Set(chain1_[0], "A", Value::Int(42)).ok());
  ASSERT_TRUE(db_.Bind(chain1_[1], chain1_[0], "R1").ok());
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 42) << "cache populated";
  // Unbind touches the *inheritor*, not the transmitter; a cache stamped
  // only with transmitter versions would keep serving 42 here.
  ASSERT_TRUE(db_.Unbind(chain1_[1]).ok());
  auto after = db_.Get(chain1_[1], "A");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->is_null()) << "unbound inheritor must see type level, "
                                << "not the stale cached value";
}

TEST_F(InheritCacheTest, RebindToNewTransmitterUnderCache) {
  ASSERT_TRUE(db_.Set(chain1_[0], "A", Value::Int(1)).ok());
  ASSERT_TRUE(db_.Set(chain2_[0], "A", Value::Int(2)).ok());
  ASSERT_TRUE(db_.Bind(chain1_[1], chain1_[0], "R1").ok());
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 1);
  ASSERT_TRUE(db_.Unbind(chain1_[1]).ok());
  ASSERT_TRUE(db_.Bind(chain1_[1], chain2_[0], "R1").ok());
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 2)
      << "rebinding must redirect the cached resolution";
}

// ---- ResetCacheStats ----

TEST_F(InheritCacheTest, ResetCacheStatsKeepsEntries) {
  BindChain(chain1_, 7);
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 7);
  ASSERT_GT(inh().cache_misses(), 0u);
  const size_t entries = inh().cache_entries();

  inh().ResetCacheStats();
  EXPECT_EQ(inh().cache_hits(), 0u);
  EXPECT_EQ(inh().cache_misses(), 0u);
  EXPECT_EQ(inh().cache_invalidations(), 0u);
  EXPECT_EQ(inh().cache_entries(), entries) << "stats reset must not evict";
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 7);
  EXPECT_EQ(inh().cache_hits(), 1u);
  EXPECT_EQ(inh().cache_misses(), 0u);
}

// ---- Fine-grained invalidation ----

TEST_F(InheritCacheTest, FineGrainedSurvivesUnrelatedWrites) {
  BindChain(chain1_, 10);
  BindChain(chain2_, 20);

  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 10);
  inh().ResetCacheStats();
  // A write on the *other* chain shares no dependency with chain1's entry.
  ASSERT_TRUE(db_.Set(chain2_[0], "A", Value::Int(21)).ok());
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 10);
  EXPECT_EQ(inh().cache_hits(), 1u)
      << "unrelated write must not evict under fine-grained validation";
  EXPECT_EQ(db_.Get(chain2_[kDepth], "A")->AsInt(), 21);
}

TEST_F(InheritCacheTest, DeepReadWarmsEveryChainLevel) {
  BindChain(chain1_, 5);
  // One leaf read resolves through L3, L2, L1 — each gets its own entry.
  // L0 resolves A locally, so it takes no entry.
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 5);
  EXPECT_EQ(inh().cache_entries(), static_cast<size_t>(kDepth));
  inh().ResetCacheStats();
  EXPECT_EQ(db_.Get(chain1_[2], "A")->AsInt(), 5);
  EXPECT_EQ(inh().cache_hits(), 1u) << "mid-chain read served from the warm "
                                    << "suffix entry";
}

// ---- Satellite 4: depth-4 visibility, including mid-chain rebinding ----

TEST_F(InheritCacheTest, Depth4UpdateVisibleColdAndWarm) {
  BindChain(chain1_, 100);
  // Round 1 starts from an empty cache, round 2 from the entries round 1
  // filled; after every step each entry that still validates must equal a
  // fresh chain walk.
  for (int round = 1; round <= 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_TRUE(db_.Get(chain1_[kDepth], "A").ok());
    EXPECT_TRUE(inh().AuditCache().empty());
    ASSERT_TRUE(db_.Set(chain1_[0], "A", Value::Int(++tick_)).ok());
    EXPECT_TRUE(inh().AuditCache().empty());
    EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), tick_)
        << "root update must be instantly visible 4 hops down";
    // Every intermediate node sees the same value.
    for (int i = 1; i < kDepth; ++i) {
      EXPECT_EQ(db_.Get(chain1_[i], "A")->AsInt(), tick_) << "hop " << i;
    }
    EXPECT_TRUE(inh().AuditCache().empty());
  }
  EXPECT_GT(inh().cache_hits(), 0u) << "round 2 read warm entries";
}

TEST_F(InheritCacheTest, MidChainRebindRedirectsDeepReads) {
  BindChain(chain1_, 10);
  BindChain(chain2_, 20);
  for (int round = 1; round <= 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 10);
    EXPECT_TRUE(inh().AuditCache().empty());
    // Splice chain1's suffix onto chain2: L2 of chain1 now hangs under
    // L1 of chain2, so the leaf must resolve to chain2's root value.
    ASSERT_TRUE(db_.Unbind(chain1_[2]).ok());
    EXPECT_TRUE(inh().AuditCache().empty());
    ASSERT_TRUE(db_.Bind(chain1_[2], chain2_[1], "R2").ok());
    EXPECT_TRUE(inh().AuditCache().empty());
    EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 20)
        << "deep read must follow the new mid-chain binding";
    // Splice back for the next round.
    ASSERT_TRUE(db_.Unbind(chain1_[2]).ok());
    ASSERT_TRUE(db_.Bind(chain1_[2], chain1_[1], "R2").ok());
    EXPECT_TRUE(inh().AuditCache().empty());
    EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 10);
    EXPECT_TRUE(inh().AuditCache().empty());
  }
}

// ---- Subclass resolutions are cached too ----

TEST_F(InheritCacheTest, SubclassResolutionCachedAndInvalidated) {
  Status parsed = db_.ExecuteDdl(R"(
    obj-type Part = attributes: P: integer; end Part;
    obj-type Holder =
      types-of-subclasses: Parts: Part;
    end Holder;
    inher-rel-type RH =
      transmitter: object-of-type Holder;
      inheritor: object;
      inheriting: Parts;
    end RH;
    obj-type Viewer = inheritor-in: RH; end Viewer;
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  Surrogate holder = db_.CreateObject("Holder").value();
  Surrogate viewer = db_.CreateObject("Viewer").value();
  ASSERT_TRUE(db_.Bind(viewer, holder, "RH").ok());
  ASSERT_TRUE(db_.CreateSubobject(holder, "Parts").ok());

  EXPECT_EQ(db_.Subclass(viewer, "Parts")->size(), 1u);
  EXPECT_EQ(inh().cache_misses(), 1u);
  EXPECT_EQ(db_.Subclass(viewer, "Parts")->size(), 1u);
  EXPECT_EQ(inh().cache_hits(), 1u) << "second subclass read memoized";

  // Growing the transmitter's subclass touches the holder → entry dies.
  Surrogate part2 = db_.CreateSubobject(holder, "Parts").value();
  EXPECT_EQ(db_.Subclass(viewer, "Parts")->size(), 2u) << "no stale view";
  // Deleting a member likewise.
  ASSERT_TRUE(db_.Delete(part2).ok());
  EXPECT_EQ(db_.Subclass(viewer, "Parts")->size(), 1u);
}

// ---- DDL after a fill changes permeability → schema epoch guard ----

TEST_F(InheritCacheTest, SchemaRegistrationInvalidatesCache) {
  BindChain(chain1_, 9);
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 9);
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 9);
  EXPECT_EQ(inh().cache_hits(), 1u);
  // New DDL bumps the catalog's schema epoch; cached resolutions derived
  // from pre-registration effective schemas must not survive it.
  ASSERT_TRUE(db_.ExecuteDdl("obj-type Extra = attributes: X: integer; "
                             "end Extra;")
                  .ok());
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 9);
  EXPECT_GE(inh().cache_invalidations(), 1u)
      << "DDL registration must invalidate cached resolutions";
}

// ---- Satellite 3 happy path + stats plumbing ----

TEST_F(InheritCacheTest, InheritorsOfReportsDirectInheritors) {
  BindChain(chain1_, 1);
  auto inheritors = inh().InheritorsOf(chain1_[0]);
  ASSERT_TRUE(inheritors.ok());
  ASSERT_EQ(inheritors->size(), 1u);
  EXPECT_EQ((*inheritors)[0], chain1_[1]);
  auto none = inh().InheritorsOf(chain1_[kDepth]);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(InheritCacheTest, StatsExposeCacheCounters) {
  BindChain(chain1_, 3);
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 3);
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 3);

  DatabaseStats stats = DatabaseStats::Collect(db_);
  // The report snapshots this database's own bundle.
  EXPECT_EQ(stats.metrics.CounterValue("caddb_inherit_cache_hits_total"),
            inh().cache_hits());
  EXPECT_EQ(stats.metrics.CounterValue("caddb_inherit_cache_misses_total"),
            inh().cache_misses());
  EXPECT_EQ(stats.metrics.CounterValue("caddb_inherit_cache_evictions_total"),
            inh().cache_evictions());
  EXPECT_GT(inh().cache_hits(), 0u);
  EXPECT_EQ(stats.cache_entries, inh().cache_entries());
  EXPECT_GT(
      stats.metrics.CounterValue("caddb_catalog_schema_cache_hits_total"),
      0u);
  EXPECT_NE(stats.ToString().find("resolution cache"), std::string::npos);
  EXPECT_NE(stats.ToString().find("schema cache"), std::string::npos);
}

}  // namespace
}  // namespace caddb
