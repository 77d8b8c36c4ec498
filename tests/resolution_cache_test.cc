// The resolution cache across layers: on a paged database whose objects are
// trimmed and faulted back in, across a crash copy, a follower rebuild and
// the entry cap, every entry that still validates must equal a fresh chain
// walk (InheritanceManager::AuditCache), a hit must fault nothing in, and
// concurrent shell reads, expands and writes must stay correct under the
// store gate.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "query/expansion.h"
#include "replication/follower.h"
#include "replication/shipper.h"
#include "shell/dispatcher.h"
#include "workload/scenario.h"

namespace caddb {
namespace {

namespace fs = std::filesystem;

using replication::Follower;
using replication::FollowerOptions;
using replication::Shipper;
using wal::DurabilityOptions;

constexpr int kDepth = 8;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::current_path() / "resolution_cache_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

/// A small resident budget and an 8-page pool: reads fault objects in,
/// writes trim them out again.
DurabilityOptions PagedOptions() {
  DurabilityOptions options;
  options.resident_object_budget = 40;
  options.buffer_pool_pages = 8;
  return options;
}

/// What `s`'s A resolves to, found without the cache: follow the bindings
/// through the public binding accessors to the root and read its local A.
Value ExpectedA(Database& db, Surrogate s) {
  Surrogate node = s;
  while (db.store().Get(node).value()->type_name() != "HL0") {
    Result<Surrogate> transmitter = db.inheritance().TransmitterOf(node);
    EXPECT_TRUE(transmitter.ok()) << transmitter.status().ToString();
    if (!transmitter.ok() || !transmitter->valid()) return Value::Null();
    node = *transmitter;
  }
  return db.store().GetLocalAttribute(node, "A").value();
}

/// Reads A at every node of every chain and compares it with ExpectedA.
void ExpectAllChainsResolve(Database& db, const workload::Hierarchy& hier) {
  for (const std::vector<Surrogate>& chain : hier.chain_nodes) {
    for (Surrogate node : chain) {
      Result<Value> got = db.Get(node, "A");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, ExpectedA(db, node)) << "@" << node.id;
    }
  }
}

std::string Audit(const Database& db) {
  std::string out;
  for (const std::string& finding : db.inheritance().AuditCache()) {
    out += finding + "\n";
  }
  return out;
}

FollowerOptions FastFollowerOptions() {
  FollowerOptions options;
  options.max_attempts = 3;
  options.sleeper = [](uint64_t) {};
  return options;
}

TEST(ResolutionCacheTest, AuditCleanAcrossPagingCrashCopyAndFollower) {
  const std::string dir = TestDir("primary");
  auto opened = Database::Open(dir, PagedOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database& db = **opened;
  workload::HierarchyParams hp;
  hp.depth = kDepth;
  hp.chains = 24;
  auto hier = workload::GenerateDeepHierarchy(&db, hp);
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  workload::SteelParams sp;
  sp.structures = 3;
  auto yard = workload::GenerateSteelYardInto(&db, sp);
  ASSERT_TRUE(yard.ok()) << yard.status().ToString();
  ASSERT_TRUE(db.Checkpoint().ok());  // everything on pages: trimmable

  // A seeded mix: leaf and mid-chain reads, root writes, expands (inherited
  // subclasses), splices that move a chain suffix under another chain, DDL
  // registrations and checkpoints.
  std::mt19937 rng(2026);
  const auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  std::vector<std::vector<Surrogate>>& chains = hier->chain_nodes;
  int splices = 0;
  int ddl = 0;
  int faulting_reads = 0;  // reads that brought paged-out objects back
  int trimming_writes = 0;  // writes after which the store paged some out
  for (int step = 0; step < 800; ++step) {
    const int roll = pick(100);
    std::vector<Surrogate>& chain = chains[pick(hp.chains)];
    const size_t resident = db.store().resident_objects();
    if (roll < 60) {
      const Surrogate node = chain[1 + pick(kDepth)];
      Result<Value> got = db.Get(node, "A");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      faulting_reads += db.store().resident_objects() > resident;
      ASSERT_EQ(*got, ExpectedA(db, node)) << "step " << step;
    } else if (roll < 75) {
      ASSERT_TRUE(db.Set(chain[0], "A", Value::Int(step)).ok());
      trimming_writes += db.store().resident_objects() < resident;
    } else if (roll < 82) {
      auto gate = db.LockStore();
      const Surrogate structure =
          yard->structures[pick(static_cast<int>(yard->structures.size()))];
      ASSERT_TRUE(db.expander().Expand(structure, ExpandOptions{}).ok());
    } else if (roll < 90) {
      // Move chain[k] (and everything below it) under another chain's
      // level k-1 node: an Unbind/Bind splice in the middle of the chain.
      const int k = 1 + pick(kDepth);
      const std::vector<Surrogate>& other = chains[pick(hp.chains)];
      ASSERT_TRUE(db.Unbind(chain[k]).ok());
      ASSERT_TRUE(
          db.Bind(chain[k], other[k - 1], "HR" + std::to_string(k)).ok());
      ++splices;
    } else if (roll < 93) {
      const std::string type = "Extra" + std::to_string(++ddl);
      ASSERT_TRUE(db.ExecuteDdl("obj-type " + type +
                                " = attributes: X: integer; end " + type +
                                ";")
                      .ok());
    } else {
      ASSERT_TRUE(db.Checkpoint().ok());
    }
    if (step % 20 == 0) {
      ASSERT_EQ(Audit(db), "") << "step " << step;
    }
  }
  ASSERT_GT(splices, 0);
  ASSERT_GT(ddl, 0);
  EXPECT_GT(faulting_reads, 0);
  EXPECT_GT(trimming_writes, 0);
  ExpectAllChainsResolve(db, *hier);
  EXPECT_EQ(Audit(db), "") << "live database";
  EXPECT_GT(db.inheritance().cache_hits(), 0u);
  EXPECT_GT(db.inheritance().cache_invalidations(), 0u);

  // A crash copy: the directory as it stands, taken under the live
  // database (kAlways: every acknowledged write is in the log).
  const std::string crash_dir = TestDir("crash");
  fs::copy(dir, crash_dir, fs::copy_options::recursive);
  {
    auto crashed = Database::Open(crash_dir, PagedOptions());
    ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
    ExpectAllChainsResolve(**crashed, *hier);
    for (const std::vector<Surrogate>& chain : chains) {
      EXPECT_EQ((*crashed)->Get(chain[kDepth], "A").value(),
                db.Get(chain[kDepth], "A").value());
    }
    EXPECT_EQ(Audit(**crashed), "") << "after Open of a crash copy";
  }

  // A follower: one rebuild, reads, then writes on the primary, a second
  // rebuild and reads again.
  const std::string replica_dir = TestDir("replica");
  Shipper shipper(&db, replica_dir);
  Follower follower(replica_dir, FastFollowerOptions());
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(shipper.ShipNow().ok());
    auto polled = follower.Poll();
    ASSERT_TRUE(polled.ok() && polled->advanced);
    Database& replica = *follower.db();
    ExpectAllChainsResolve(replica, *hier);
    for (const std::vector<Surrogate>& chain : chains) {
      EXPECT_EQ(replica.Get(chain[kDepth], "A").value(),
                db.Get(chain[kDepth], "A").value());
    }
    EXPECT_EQ(Audit(replica), "") << "after follower rebuild " << round;
    for (const std::vector<Surrogate>& chain : chains) {
      ASSERT_TRUE(db.Set(chain[0], "A", Value::Int(9000 + round)).ok());
    }
  }
  EXPECT_EQ(db.inheritance().cache_evictions(), 0u)
      << "this working set is far below the cap";
}

TEST(ResolutionCacheTest, ProbeFirstHitFaultsNothingIn) {
  auto opened = Database::Open(TestDir("probe_first"), PagedOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database& db = **opened;
  workload::HierarchyParams hp;
  hp.depth = kDepth;
  hp.chains = 12;
  auto hier = workload::GenerateDeepHierarchy(&db, hp);
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  ASSERT_TRUE(db.Checkpoint().ok());
  const std::vector<Surrogate>& chain = hier->chain_nodes[0];
  const Surrogate leaf = chain[kDepth];
  const Value want = db.Get(leaf, "A").value();  // fills the chain

  // Writes elsewhere trim the store to its budget; the other chains' reads
  // in between push this chain's objects out.
  for (int c = 1; c < hp.chains; ++c) {
    ASSERT_TRUE(db.Get(hier->chain_nodes[c][kDepth], "A").ok());
    ASSERT_TRUE(db.Set(hier->chain_nodes[c][0], "B", Value::Int(c)).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Set(hier->chain_nodes[1][0], "B", Value::Int(0)).ok());

  const size_t resident = db.store().resident_objects();
  const uint64_t hits = db.inheritance().cache_hits();
  EXPECT_EQ(db.Get(leaf, "A").value(), want);
  EXPECT_EQ(db.inheritance().cache_hits(), hits + 1);
  EXPECT_EQ(db.store().resident_objects(), resident)
      << "a hit must not fault the leaf or its chain in";

  // Control: a miss on the same chain does fault its objects back in, so
  // the hit above really skipped paged-out objects.
  ASSERT_TRUE(db.Set(chain[0], "A", Value::Int(77)).ok());
  const size_t before_miss = db.store().resident_objects();
  EXPECT_EQ(db.Get(leaf, "A").value(), Value::Int(77));
  EXPECT_GT(db.store().resident_objects(), before_miss);
  EXPECT_EQ(Audit(db), "");
}

/// One transmitter type with kAttrs inherited attributes, and an inheritor
/// type that inherits all of them: every (inheritor, attribute) read fills
/// one entry, so a few hundred objects cross the entry cap.
class CacheCapTest : public ::testing::Test {
 protected:
  static constexpr int kAttrs = 64;
  /// Inheritors per group: one group's reads fill 9/16 of the cap.
  static constexpr int kGroup =
      static_cast<int>(InheritanceManager::kCacheCapacity * 9 / 16 / kAttrs);

  CacheCapTest() {
    std::string attrs;
    for (int i = 0; i < kAttrs; ++i) {
      attrs += (i == 0 ? "A" : ", A") + std::to_string(i);
    }
    Status parsed = db_.ExecuteDdl(
        "obj-type W0 = attributes: " + attrs + ": integer; end W0;\n"
        "inher-rel-type WR = transmitter: object-of-type W0; inheritor: "
        "object; inheriting: " + attrs + "; end WR;\n"
        "obj-type W1 = inheritor-in: WR; end W1;\n");
    EXPECT_TRUE(parsed.ok()) << parsed.ToString();
  }

  /// A transmitter with A<i> = base + i and kGroup inheritors bound to it.
  std::vector<Surrogate> Group(int64_t base) {
    Surrogate transmitter = db_.CreateObject("W0").value();
    transmitters_.push_back(transmitter);
    for (int i = 0; i < kAttrs; ++i) {
      EXPECT_TRUE(db_.Set(transmitter, "A" + std::to_string(i),
                          Value::Int(base + i))
                      .ok());
    }
    std::vector<Surrogate> group;
    for (int k = 0; k < kGroup; ++k) {
      group.push_back(db_.CreateObject("W1").value());
      EXPECT_TRUE(db_.Bind(group.back(), transmitter, "WR").ok());
    }
    return group;
  }

  /// Reads every attribute of every inheritor in `group`; the cap must
  /// hold after every fill.
  void ReadAll(const std::vector<Surrogate>& group, int64_t base) {
    for (Surrogate s : group) {
      for (int i = 0; i < kAttrs; ++i) {
        ASSERT_EQ(db_.Get(s, "A" + std::to_string(i)).value(),
                  Value::Int(base + i));
        ASSERT_LE(inh().cache_entries(), InheritanceManager::kCacheCapacity);
      }
    }
  }

  InheritanceManager& inh() { return db_.inheritance(); }

  Database db_;
  std::vector<Surrogate> transmitters_;
};

TEST_F(CacheCapTest, StaleEntriesGoFirstThenColdOnes) {
  constexpr size_t kGroupEntries = static_cast<size_t>(kGroup) * kAttrs;
  const std::vector<Surrogate> a = Group(1000);
  const std::vector<Surrogate> b = Group(2000);
  ReadAll(a, 1000);
  ASSERT_EQ(inh().cache_entries(), kGroupEntries);
  EXPECT_EQ(inh().cache_evictions(), 0u);

  // Every entry of group a now depends on a stale transmitter version; b's
  // fills cross the cap, and dropping a's stale entries is enough.
  ASSERT_TRUE(db_.Set(transmitters_[0], "A0", Value::Int(1000)).ok());
  ReadAll(b, 2000);
  EXPECT_EQ(inh().cache_evictions(), kGroupEntries) << "exactly a's entries";
  EXPECT_EQ(inh().cache_entries(), kGroupEntries) << "all of b's survive";
  const uint64_t misses = inh().cache_misses();
  ReadAll(b, 2000);
  EXPECT_EQ(inh().cache_misses(), misses) << "b is served from the cache";

  // Now every entry is valid: a's fills cross the cap again and the
  // second-chance sweep evicts cold entries down to 7/8 of the cap.
  ReadAll(a, 1000);
  EXPECT_GT(inh().cache_evictions(), kGroupEntries);
  EXPECT_LE(inh().cache_entries(), InheritanceManager::kCacheCapacity);
  EXPECT_EQ(db_.observability()->metrics.Snapshot().CounterValue(
                InheritanceManager::kCacheEvictions),
            inh().cache_evictions());
  // Evicted or kept, every read is still right, and what is kept is sound.
  ReadAll(b, 2000);
  ReadAll(a, 1000);
  EXPECT_EQ(Audit(db_), "");
}

TEST(ResolutionCacheConcurrencyTest, ConcurrentGetAndExpandWithWriters) {
  DurabilityOptions options = PagedOptions();
  options.checkpoint_interval_ms = 5;  // a background checkpointer too
  auto opened = Database::Open(TestDir("concurrent"), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database& db = **opened;
  workload::HierarchyParams hp;
  hp.depth = kDepth;
  hp.chains = 8;
  auto hier = workload::GenerateDeepHierarchy(&db, hp);
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  workload::SteelParams sp;
  sp.structures = 2;
  auto yard = workload::GenerateSteelYardInto(&db, sp);
  ASSERT_TRUE(yard.ok()) << yard.status().ToString();
  ASSERT_TRUE(db.Checkpoint().ok());
  std::vector<std::string> expanded;
  for (Surrogate structure : yard->structures) {
    shell::Dispatcher shell(&db);
    std::ostringstream out;
    shell.ExecuteLine("expand @" + std::to_string(structure.id), out);
    ASSERT_EQ(shell.error_count(), 0u) << out.str();
    expanded.push_back(out.str());
  }
  const std::vector<std::vector<Surrogate>>& chains = hier->chain_nodes;

  constexpr int kRounds = 300;
  std::atomic<int> failures{0};
  const auto fail = [&failures](const std::string& what) {
    ++failures;
    ADD_FAILURE() << what;
  };
  // Writers set each root's A to 1, 2, 3, ...: a reader must never see a
  // chain's value go backwards.
  auto writer = [&](int first_chain) {
    shell::Dispatcher shell(&db);
    for (int v = 1; v <= kRounds; ++v) {
      for (size_t c = static_cast<size_t>(first_chain); c < chains.size();
           c += 2) {
        std::ostringstream out;
        shell.ExecuteLine("set @" + std::to_string(chains[c][0].id) +
                              " A i:" + std::to_string(v),
                          out);
        if (out.str() != "ok\n") fail("set: " + out.str());
      }
    }
  };
  auto reader = [&](uint32_t seed) {
    shell::Dispatcher shell(&db);
    std::mt19937 rng(seed);
    std::vector<int64_t> seen(chains.size(), 0);
    for (int i = 0; i < kRounds * 4; ++i) {
      const size_t c = rng() % chains.size();
      const Surrogate node = chains[c][1 + rng() % kDepth];
      std::ostringstream out;
      shell.ExecuteLine("get @" + std::to_string(node.id) + " A", out);
      const int64_t v = std::atoll(out.str().c_str());
      if (v < seen[c] || (v == 0 && out.str() != "0\n")) {
        fail("chain " + std::to_string(c) + " read " + out.str() +
             " after " + std::to_string(seen[c]));
      }
      seen[c] = v;
    }
  };
  auto expander = [&] {
    shell::Dispatcher shell(&db);
    for (int i = 0; i < kRounds; ++i) {
      const size_t k = static_cast<size_t>(i) % expanded.size();
      std::ostringstream out;
      shell.ExecuteLine("expand @" + std::to_string(yard->structures[k].id),
                        out);
      if (out.str() != expanded[k]) fail("expand: " + out.str());
    }
  };
  // Every chain root starts from the generator's seeded value; reset them
  // so monotonicity starts at 0.
  for (const std::vector<Surrogate>& chain : chains) {
    ASSERT_TRUE(db.Set(chain[0], "A", Value::Int(0)).ok());
  }
  std::vector<std::thread> threads;
  threads.emplace_back(writer, 0);
  threads.emplace_back(writer, 1);
  threads.emplace_back(reader, 1u);
  threads.emplace_back(reader, 2u);
  threads.emplace_back(expander);
  threads.emplace_back(expander);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto gate = db.LockStore();
  for (const std::vector<Surrogate>& chain : chains) {
    EXPECT_EQ(db.inheritance().GetAttribute(chain[kDepth], "A").value(),
              Value::Int(kRounds));
  }
  EXPECT_EQ(Audit(db), "");
  EXPECT_GT(db.inheritance().cache_hits(), 0u);
}

}  // namespace
}  // namespace caddb
