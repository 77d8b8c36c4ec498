// Log-shipping replication: shipper/follower round trips, the shipment
// fault matrix on the `replication.ship` failpoint (drop, truncate,
// duplicate, reorder, corrupt-one-byte, stall — each must heal or
// quarantine, never apply divergent data), the
// CAD201-205 divergence quarantines, retry/backoff behavior through the
// injectable I/O hooks, and promotion.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/paper_schemas.h"
#include "fault/failpoint.h"
#include "persist/dump.h"
#include "replication/follower.h"
#include "replication/manifest.h"
#include "replication/shipper.h"
#include "shell/dispatcher.h"
#include "wal/checkpoint.h"
#include "workload/generator.h"
#include "wal/crc32c.h"
#include "wal/log_io.h"
#include "wal/wal.h"

namespace caddb {
namespace replication {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::current_path() / "replication_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

std::string CanonicalDump(const Database& db) {
  Result<std::string> dump = persist::CanonicalDump(db);
  EXPECT_TRUE(dump.ok()) << dump.status().ToString();
  return dump.ok() ? *dump : std::string();
}

/// Arms the process-global `replication.ship` failpoint for one test and
/// disarms every site on all exits, assertion failures included, so a
/// fault never leaks into the next case of this binary.
struct ShipFaultGuard {
  ShipFaultGuard() { fault::FailpointRegistry::Global().DisarmAll(); }
  ~ShipFaultGuard() { fault::FailpointRegistry::Global().DisarmAll(); }
  /// `spec` in the shell's token form, e.g. "truncate --skip=1 --times=1".
  Status Arm(const std::string& spec) {
    return fault::FailpointRegistry::Global().ArmFromString(
        std::string(fault::sites::kReplicationShip) + " " + spec);
  }
};

/// Matrix name of a shipment fault; kOff is the clean run.
std::string ShipFaultName(fault::ActionKind kind) {
  return kind == fault::ActionKind::kOff ? "none"
                                         : fault::ActionKindName(kind);
}

/// One increment of primary work per shipment: an auto-committed create +
/// sets, a committed transaction and an aborted one (stage 1 also loads the
/// schema). Deterministic, so two primaries running the same stages write
/// the same logical history.
Status ApplyStage(Database* db, int stage) {
  if (stage == 1) {
    CADDB_RETURN_IF_ERROR(db->ExecuteDdl(schemas::kGatesBase));
  }
  CADDB_ASSIGN_OR_RETURN(Surrogate gate, db->CreateObject("SimpleGate"));
  CADDB_RETURN_IF_ERROR(db->Set(gate, "Length", Value::Int(stage * 10)));
  CADDB_RETURN_IF_ERROR(db->Set(gate, "Function", Value::Enum("AND")));
  {
    CADDB_ASSIGN_OR_RETURN(TxnId txn, db->transactions().Begin("committer"));
    CADDB_RETURN_IF_ERROR(
        db->transactions().Write(txn, gate, "Width", Value::Int(stage)));
    CADDB_RETURN_IF_ERROR(db->transactions().Commit(txn));
  }
  {
    CADDB_ASSIGN_OR_RETURN(TxnId txn, db->transactions().Begin("aborter"));
    CADDB_RETURN_IF_ERROR(
        db->transactions().Write(txn, gate, "Width", Value::Int(9999)));
    CADDB_RETURN_IF_ERROR(db->transactions().Abort(txn));
  }
  return OkStatus();
}

/// Follower options that never actually sleep (tests run the backoff logic
/// through a counting sleeper).
FollowerOptions FastFollowerOptions(std::vector<uint64_t>* sleeps = nullptr) {
  FollowerOptions options;
  options.max_attempts = 3;
  // Exact-schedule assertions below need the unjittered delays.
  options.backoff_jitter = 0;
  options.sleeper = [sleeps](uint64_t us) {
    if (sleeps != nullptr) sleeps->push_back(us);
  };
  return options;
}

TEST(ReplicationTest, ShipFollowCatchUpAndLagTelemetry) {
  const std::string primary_dir = TestDir("basic_primary");
  const std::string replica_dir = TestDir("basic_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  Shipper shipper((*primary).get(), replica_dir);
  Follower follower(replica_dir, FastFollowerOptions());

  // Nothing shipped yet: a poll is a clean no-op, not an error.
  auto idle = follower.Poll();
  ASSERT_TRUE(idle.ok()) << idle.status().ToString();
  EXPECT_FALSE(idle->advanced);
  EXPECT_EQ(follower.state(), FollowerState::kNeverSynced);

  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  auto shipped = shipper.ShipNow();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_EQ(shipped->seq, 1u);
  EXPECT_GT(shipped->files_copied, 0u);

  auto poll = follower.Poll();
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  EXPECT_TRUE(poll->advanced);
  ASSERT_NE(follower.db(), nullptr);
  EXPECT_EQ(CanonicalDump(*follower.db()), CanonicalDump(**primary));

  // Telemetry: caught up, zero lag, and the database carries it.
  ReplicaInfo info = follower.replica_info();
  EXPECT_TRUE(info.is_replica);
  EXPECT_EQ(info.state, "caught-up");
  EXPECT_EQ(info.lag(), 0u);
  EXPECT_EQ(info.manifest_seq, 1u);
  EXPECT_TRUE(follower.db()->replica_info().is_replica);
  EXPECT_EQ(follower.db()->replica_info().replay_lsn, info.replay_lsn);

  // More primary work, not yet polled: a re-poll after the next shipment
  // converges again; a poll with no new manifest stays put.
  ASSERT_TRUE(ApplyStage((*primary).get(), 2).ok());
  ASSERT_TRUE(shipper.ShipNow().ok());
  auto poll2 = follower.Poll();
  ASSERT_TRUE(poll2.ok()) << poll2.status().ToString();
  EXPECT_TRUE(poll2->advanced);
  EXPECT_EQ(CanonicalDump(*follower.db()), CanonicalDump(**primary));
  auto poll3 = follower.Poll();
  ASSERT_TRUE(poll3.ok());
  EXPECT_FALSE(poll3->advanced) << "stale manifest applied twice";

  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(ReplicationTest, FollowerDatabaseRefusesWrites) {
  const std::string primary_dir = TestDir("ro_primary");
  const std::string replica_dir = TestDir("ro_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  Shipper shipper((*primary).get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());
  Follower follower(replica_dir, FastFollowerOptions());
  ASSERT_TRUE(follower.Poll().ok());
  ASSERT_NE(follower.db(), nullptr);

  Database* replica = follower.db();
  EXPECT_TRUE(replica->read_only());
  EXPECT_EQ(replica->CreateObject("SimpleGate").status().code(),
            Code::kFailedPrecondition);
  EXPECT_EQ(replica->ExecuteDdl("domain D = (A);").code(),
            Code::kFailedPrecondition);
  std::vector<Surrogate> objects = replica->store().AllObjects();
  ASSERT_FALSE(objects.empty());
  EXPECT_EQ(replica->Set(objects[0], "Length", Value::Int(1)).code(),
            Code::kFailedPrecondition);
  EXPECT_EQ(replica->Delete(objects[0]).code(), Code::kFailedPrecondition);
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(ReplicationTest, CheckpointTruncationReseedsTheFollower) {
  const std::string primary_dir = TestDir("reseed_primary");
  const std::string replica_dir = TestDir("reseed_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  Shipper shipper((*primary).get(), replica_dir);
  Follower follower(replica_dir, FastFollowerOptions());

  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  ASSERT_TRUE(shipper.ShipNow().ok());
  ASSERT_TRUE(follower.Poll().ok());
  const uint64_t old_anchor = follower.replica_info().replay_lsn;

  // The primary checkpoints (folding the log into a new snapshot and
  // truncating every shipped segment) and keeps going. The next shipment
  // carries the new checkpoint anchor; the follower rebuilds from it and
  // the shipper garbage-collects the now-unreferenced replica files.
  ASSERT_TRUE((*primary)->Checkpoint().ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 2).ok());
  auto shipped = shipper.ShipNow();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_GT(shipped->files_deleted, 0u)
      << "truncated segments were not garbage-collected from the replica";

  auto poll = follower.Poll();
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  EXPECT_TRUE(poll->advanced);
  EXPECT_EQ(follower.state(), FollowerState::kFollowing);
  EXPECT_GT(follower.replica_info().replay_lsn, old_anchor);
  EXPECT_EQ(CanonicalDump(*follower.db()), CanonicalDump(**primary));
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(ReplicationTest, PrimaryRestartAdvancesGenerationAndSeqKeepsAscending) {
  const std::string primary_dir = TestDir("restart_primary");
  const std::string replica_dir = TestDir("restart_replica");
  uint64_t first_generation = 0;
  {
    auto primary = Database::Open(primary_dir);
    ASSERT_TRUE(primary.ok());
    first_generation = (*primary)->generation();
    ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
    Shipper shipper((*primary).get(), replica_dir);
    ASSERT_TRUE(shipper.ShipNow().ok());
    ASSERT_TRUE(shipper.ShipNow().ok());  // seq 2
    ASSERT_TRUE((*primary)->Close().ok());
  }
  Follower follower(replica_dir, FastFollowerOptions());
  ASSERT_TRUE(follower.Poll().ok());
  EXPECT_EQ(follower.replica_info().manifest_seq, 2u);
  EXPECT_EQ(follower.replica_info().generation, first_generation);

  // Restart: a new process, a new log generation, and a brand-new Shipper
  // whose seq must seed itself past the replica's applied one.
  {
    auto primary = Database::Open(primary_dir);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ((*primary)->generation(), first_generation + 1);
    ASSERT_TRUE(ApplyStage((*primary).get(), 2).ok());
    Shipper shipper((*primary).get(), replica_dir);
    auto shipped = shipper.ShipNow();
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
    EXPECT_GT(shipped->seq, 2u) << "restarted shipper reused a stale seq";

    auto poll = follower.Poll();
    ASSERT_TRUE(poll.ok()) << poll.status().ToString();
    EXPECT_TRUE(poll->advanced);
    EXPECT_EQ(follower.state(), FollowerState::kFollowing);
    EXPECT_EQ(follower.replica_info().generation, first_generation + 1);
    EXPECT_EQ(CanonicalDump(*follower.db()), CanonicalDump(**primary));
    ASSERT_TRUE((*primary)->Close().ok());
  }
}

// ---- The shipment fault matrix ----
//
// For every shipment fault, attempt 2 of 4 is hit by the fault (armed as
// `<kind> --skip=1 --times=1` on `replication.ship`) while the primary
// keeps working between shipments. Acceptance: the follower either catches
// up (after the fault, polls may report kUnavailable while the transfer is
// broken) or quarantines — it never serves state that diverges from the
// primary's history, and after the final clean shipment it must converge
// exactly.
class FaultMatrixTest : public ::testing::TestWithParam<fault::ActionKind> {
};

TEST_P(FaultMatrixTest, FollowerHealsOrQuarantinesNeverDiverges) {
  const fault::ActionKind kind = GetParam();
  const std::string name = ShipFaultName(kind);
  const std::string primary_dir = TestDir(std::string("fault_") + name);
  const std::string replica_dir =
      TestDir(std::string("fault_") + name + "_replica");

  ShipFaultGuard guard;
  if (kind != fault::ActionKind::kOff) {
    ASSERT_TRUE(guard.Arm(name + " --skip=1 --times=1").ok());
  }
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  Shipper shipper((*primary).get(), replica_dir);
  Follower follower(replica_dir, FastFollowerOptions());

  std::vector<std::string> oracles;  // primary state at each ship
  for (int stage = 1; stage <= 4; ++stage) {
    ASSERT_TRUE(ApplyStage((*primary).get(), stage).ok());
    auto shipped = shipper.ShipNow();
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
    EXPECT_EQ(shipped->fault, stage == 2 ? kind : fault::ActionKind::kOff);
    oracles.push_back(CanonicalDump(**primary));

    auto poll = follower.Poll();
    ASSERT_NE(follower.state(), FollowerState::kQuarantined)
        << name << " stage " << stage << ": "
        << follower.quarantine_code() << " " << follower.quarantine_reason();
    if (poll.ok()) {
      // Whatever the follower serves must be *some* shipped prefix: a state
      // the primary actually went through at a shipment point (or the
      // pre-shipment empty state).
      if (follower.db() != nullptr) {
        const std::string dump = CanonicalDump(*follower.db());
        bool matches_oracle = false;
        for (const std::string& oracle : oracles) {
          matches_oracle = matches_oracle || dump == oracle;
        }
        EXPECT_TRUE(matches_oracle)
            << name << " stage " << stage
            << ": follower serves a state the primary never shipped";
      }
    } else {
      // Transient unavailability is legal while the fault is in effect;
      // divergence-style refusals are not.
      EXPECT_EQ(poll.status().code(), Code::kUnavailable)
          << name << " stage " << stage << ": " << poll.status().ToString();
    }
  }

  // One final clean shipment: everything self-heals and converges.
  auto final_shipped = shipper.ShipNow();
  ASSERT_TRUE(final_shipped.ok()) << final_shipped.status().ToString();
  auto final_poll = follower.Poll();
  ASSERT_TRUE(final_poll.ok())
      << name << ": " << final_poll.status().ToString();
  EXPECT_EQ(follower.state(), FollowerState::kFollowing);
  EXPECT_TRUE(follower.quarantine_code().empty());
  ASSERT_NE(follower.db(), nullptr);
  EXPECT_EQ(CanonicalDump(*follower.db()), CanonicalDump(**primary))
      << name << ": follower failed to converge after the fault cleared";
  EXPECT_EQ(follower.replica_info().state, "caught-up");
  ASSERT_TRUE((*primary)->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FaultMatrixTest,
    ::testing::Values(fault::ActionKind::kOff, fault::ActionKind::kDrop,
                      fault::ActionKind::kTruncate,
                      fault::ActionKind::kDuplicate,
                      fault::ActionKind::kReorder, fault::ActionKind::kCorrupt,
                      fault::ActionKind::kStall),
    [](const ::testing::TestParamInfo<fault::ActionKind>& info) {
      return ShipFaultName(info.param);
    });

TEST(ReplicationTest, GeneratorWorkloadUnderScriptedFaultsConverges) {
  // The tentpole drill: a workload::Generator-driven primary shipping
  // through a scripted multi-fault schedule (truncate at attempt 2, corrupt
  // at 4, drop at 5; each armed on `replication.ship` with `--skip` counting
  // the clean attempts before it). At every cut point the follower serves
  // some ship-time oracle or reports kUnavailable; after the schedule runs
  // dry it converges exactly.
  const std::string primary_dir = TestDir("generator_primary");
  const std::string replica_dir = TestDir("generator_replica");
  // round -> the fault that attempt suffers; each is armed right after
  // the previous fault fired.
  const std::map<int, fault::ActionKind> script = {
      {2, fault::ActionKind::kTruncate},
      {4, fault::ActionKind::kCorrupt},
      {5, fault::ActionKind::kDrop}};
  ShipFaultGuard guard;
  auto arm_next = [&](int round) -> Status {
    auto next = script.upper_bound(round);
    if (next == script.end()) return OkStatus();
    return guard.Arm(ShipFaultName(next->second) + " --skip=" +
                     std::to_string(next->first - round - 1) + " --times=1");
  };
  ASSERT_TRUE(arm_next(0).ok());
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE((*primary)->ExecuteDdl(schemas::kGatesBase).ok());
  ASSERT_TRUE((*primary)->ExecuteDdl(schemas::kGatesInterfaces).ok());
  Shipper shipper((*primary).get(), replica_dir);
  Follower follower(replica_dir, FastFollowerOptions());

  std::vector<std::string> oracles;
  for (int round = 1; round <= 6; ++round) {
    workload::NetlistParams params;
    params.seed = static_cast<uint32_t>(round);
    params.library_size = 3;
    params.composites = 2;
    params.components_per_composite = 2;
    auto netlist = workload::GenerateNetlist((*primary).get(), params);
    ASSERT_TRUE(netlist.ok()) << netlist.status().ToString();
    auto shipped = shipper.ShipNow();
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
    auto scripted = script.find(round);
    EXPECT_EQ(shipped->fault, scripted == script.end()
                                  ? fault::ActionKind::kOff
                                  : scripted->second);
    if (scripted != script.end()) {
      ASSERT_TRUE(arm_next(round).ok());
    }
    oracles.push_back(CanonicalDump(**primary));

    auto poll = follower.Poll();
    ASSERT_NE(follower.state(), FollowerState::kQuarantined)
        << "round " << round << ": " << follower.quarantine_code() << " "
        << follower.quarantine_reason();
    if (poll.ok()) {
      if (follower.db() != nullptr) {
        const std::string dump = CanonicalDump(*follower.db());
        bool matches_oracle = false;
        for (const std::string& oracle : oracles) {
          matches_oracle = matches_oracle || dump == oracle;
        }
        EXPECT_TRUE(matches_oracle)
            << "round " << round
            << ": follower serves a state the primary never shipped";
      }
    } else {
      EXPECT_EQ(poll.status().code(), Code::kUnavailable)
          << "round " << round << ": " << poll.status().ToString();
    }
  }

  auto final_shipped = shipper.ShipNow();
  ASSERT_TRUE(final_shipped.ok()) << final_shipped.status().ToString();
  auto final_poll = follower.Poll();
  ASSERT_TRUE(final_poll.ok()) << final_poll.status().ToString();
  EXPECT_EQ(follower.state(), FollowerState::kFollowing);
  EXPECT_EQ(CanonicalDump(*follower.db()), CanonicalDump(**primary));
  EXPECT_EQ(follower.replica_info().state, "caught-up");
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(ReplicationTest, TruncatedTransferReportsUnavailableThenHeals) {
  // Sharper version of the matrix's kTruncate row: the poll right after the
  // torn transfer must fail kUnavailable (not quarantine, not apply), and
  // the next clean shipment must re-copy the damaged file.
  const std::string primary_dir = TestDir("truncate_primary");
  const std::string replica_dir = TestDir("truncate_replica");
  ShipFaultGuard guard;
  ASSERT_TRUE(guard.Arm("truncate --skip=1 --times=1").ok());
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  Shipper shipper((*primary).get(), replica_dir);
  Follower follower(replica_dir, FastFollowerOptions());

  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  ASSERT_TRUE(shipper.ShipNow().ok());
  ASSERT_TRUE(follower.Poll().ok());
  const std::string before = CanonicalDump(*follower.db());

  ASSERT_TRUE(ApplyStage((*primary).get(), 2).ok());
  ASSERT_TRUE(shipper.ShipNow().ok());  // torn transfer
  auto poll = follower.Poll();
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), Code::kUnavailable)
      << poll.status().ToString();
  EXPECT_EQ(follower.state(), FollowerState::kFollowing);
  EXPECT_EQ(CanonicalDump(*follower.db()), before)
      << "follower applied a torn transfer";

  auto healed = shipper.ShipNow();
  ASSERT_TRUE(healed.ok());
  EXPECT_GT(healed->files_healed, 0u) << "self-healing copy did not trigger";
  auto poll2 = follower.Poll();
  ASSERT_TRUE(poll2.ok()) << poll2.status().ToString();
  EXPECT_TRUE(poll2->advanced);
  EXPECT_EQ(CanonicalDump(*follower.db()), CanonicalDump(**primary));
  ASSERT_TRUE((*primary)->Close().ok());
}

// ---- Divergence quarantines ----

/// Ships one stage of work and follows it; returns the primary so callers
/// can keep mutating the replica directory around a live baseline.
struct FollowedPair {
  std::unique_ptr<Database> primary;
  std::unique_ptr<Shipper> shipper;
  std::unique_ptr<Follower> follower;
};

FollowedPair MakeFollowedPair(const std::string& primary_dir,
                              const std::string& replica_dir) {
  FollowedPair pair;
  auto primary = Database::Open(primary_dir);
  EXPECT_TRUE(primary.ok()) << primary.status().ToString();
  pair.primary = std::move(*primary);
  EXPECT_TRUE(ApplyStage(pair.primary.get(), 1).ok());
  pair.shipper = std::make_unique<Shipper>(pair.primary.get(), replica_dir);
  EXPECT_TRUE(pair.shipper->ShipNow().ok());
  pair.follower =
      std::make_unique<Follower>(replica_dir, FastFollowerOptions());
  auto poll = pair.follower->Poll();
  EXPECT_TRUE(poll.ok()) << poll.status().ToString();
  EXPECT_TRUE(poll->advanced);
  return pair;
}

Manifest CurrentManifest(const std::string& replica_dir) {
  Result<std::string> bytes = wal::ReadFileToString(
      (fs::path(replica_dir) / kManifestFileName).string());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  Result<Manifest> manifest = Manifest::Decode(*bytes);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return *manifest;
}

void PublishManifest(const std::string& replica_dir,
                     const Manifest& manifest) {
  ASSERT_TRUE(wal::AtomicWriteFile(
                  (fs::path(replica_dir) / kManifestFileName).string(),
                  manifest.Encode())
                  .ok());
}

void ExpectQuarantined(Follower* follower, const std::string& code) {
  auto poll = follower->Poll();
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), Code::kFailedPrecondition)
      << poll.status().ToString();
  EXPECT_EQ(follower->state(), FollowerState::kQuarantined);
  EXPECT_EQ(follower->quarantine_code(), code)
      << follower->quarantine_reason();
  // Once quarantined, always quarantined: polls and promotion refuse.
  auto again = follower->Poll();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), Code::kFailedPrecondition);
  auto promoted = follower->Promote();
  EXPECT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), Code::kFailedPrecondition);
}

TEST(ReplicationQuarantineTest, GenerationRegressionIsCAD201) {
  const std::string primary_dir = TestDir("cad201_primary");
  const std::string replica_dir = TestDir("cad201_replica");
  FollowedPair pair = MakeFollowedPair(primary_dir, replica_dir);
  Manifest manifest = CurrentManifest(replica_dir);
  manifest.seq += 1;
  manifest.generation = 0;  // primaries start at generation 1: a regression
  PublishManifest(replica_dir, manifest);
  ExpectQuarantined(pair.follower.get(), "CAD201");
  ASSERT_TRUE(pair.primary->Close().ok());
}

TEST(ReplicationQuarantineTest, CheckpointAnchorRegressionIsCAD202) {
  const std::string primary_dir = TestDir("cad202_primary");
  const std::string replica_dir = TestDir("cad202_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  // Advance the anchor past zero before following, so it has room to
  // regress.
  ASSERT_TRUE((*primary)->Checkpoint().ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 2).ok());
  Shipper shipper((*primary).get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());
  Follower follower(replica_dir, FastFollowerOptions());
  ASSERT_TRUE(follower.Poll().ok());
  ASSERT_GT(follower.replica_info().generation, 0u);

  Manifest manifest = CurrentManifest(replica_dir);
  manifest.seq += 1;
  manifest.checkpoint.lsn -= 1;  // same generation, anchor moves backwards
  manifest.segments.clear();     // keep the manifest structurally valid
  PublishManifest(replica_dir, manifest);
  ExpectQuarantined(&follower, "CAD202");
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(ReplicationQuarantineTest, RewrittenHistoryIsCAD203) {
  // Two *different* primaries, same generation (both fresh), same anchor
  // (their initial checkpoint), shipping into the same replica directory:
  // the second shipment re-uses the first's lsn range for a different
  // logical history. The follower must refuse to swallow it.
  const std::string replica_dir = TestDir("cad203_replica");
  const std::string primary1_dir = TestDir("cad203_primary1");
  const std::string primary2_dir = TestDir("cad203_primary2");
  {
    auto primary = Database::Open(primary1_dir);
    ASSERT_TRUE(primary.ok());
    ASSERT_TRUE((*primary)->ExecuteDdl(schemas::kGatesBase).ok());
    Shipper shipper((*primary).get(), replica_dir);
    ASSERT_TRUE(shipper.ShipNow().ok());
    ASSERT_TRUE((*primary)->Close().ok());
  }
  Follower follower(replica_dir, FastFollowerOptions());
  ASSERT_TRUE(follower.Poll().ok());
  ASSERT_EQ(follower.state(), FollowerState::kFollowing);

  {
    auto primary = Database::Open(primary2_dir);
    ASSERT_TRUE(primary.ok());
    ASSERT_TRUE((*primary)->ExecuteDdl(schemas::kSteel).ok());
    Shipper shipper((*primary).get(), replica_dir);
    ASSERT_TRUE(shipper.ShipNow().ok());  // seq seeds past the old manifest
    ASSERT_TRUE((*primary)->Close().ok());
  }
  ExpectQuarantined(&follower, "CAD203");
}

TEST(ReplicationQuarantineTest, ShrunkReplayedPrefixIsCAD203) {
  const std::string primary_dir = TestDir("cad203s_primary");
  const std::string replica_dir = TestDir("cad203s_replica");
  FollowedPair pair = MakeFollowedPair(primary_dir, replica_dir);

  // Re-publish the same shipment, but with the tail segment cut back to a
  // strictly shorter frame prefix: the primary "forgot" applied records.
  Manifest manifest = CurrentManifest(replica_dir);
  ASSERT_FALSE(manifest.segments.empty());
  ManifestSegment& tail = manifest.segments.back();
  Result<std::string> bytes = wal::ReadFileToString(
      (fs::path(replica_dir) / tail.file).string());
  ASSERT_TRUE(bytes.ok());
  wal::SegmentContents contents = wal::DecodeFrames(*bytes);
  ASSERT_GT(contents.frames.size(), 1u);
  const wal::Frame& shorter =
      contents.frames[contents.frames.size() / 2 - 1];
  manifest.seq += 1;
  tail.last_lsn = shorter.lsn;
  tail.bytes = shorter.end_offset;
  tail.crc = wal::Crc32c(bytes->data(), shorter.end_offset);
  PublishManifest(replica_dir, manifest);
  ExpectQuarantined(pair.follower.get(), "CAD203");
  ASSERT_TRUE(pair.primary->Close().ok());
}

TEST(ReplicationQuarantineTest, StructurallyInconsistentManifestIsCAD204) {
  const std::string primary_dir = TestDir("cad204_primary");
  const std::string replica_dir = TestDir("cad204_replica");
  FollowedPair pair = MakeFollowedPair(primary_dir, replica_dir);
  Manifest manifest = CurrentManifest(replica_dir);
  ASSERT_FALSE(manifest.segments.empty());
  manifest.seq += 1;
  // A segment that ends before it starts: no transfer fault can produce
  // this (the manifest's own CRC still matches), so it is a divergent
  // primary, not a retryable glitch.
  manifest.segments.back().start_lsn = manifest.segments.back().last_lsn + 1;
  PublishManifest(replica_dir, manifest);
  ExpectQuarantined(pair.follower.get(), "CAD204");
  ASSERT_TRUE(pair.primary->Close().ok());
}

TEST(ReplicationQuarantineTest, CrcValidButUnreplayableShipmentIsCAD205) {
  // A manifest whose checksums all match the shipped bytes, but whose log
  // does not replay (frame payloads are not records): the primary shipped
  // a broken history. That is divergence, not a transfer problem.
  const std::string replica_dir = TestDir("cad205_replica");
  Database empty;
  Result<std::string> meta = persist::DumpMeta(empty);
  ASSERT_TRUE(meta.ok());
  wal::CheckpointData data;
  data.meta = *meta;
  ASSERT_TRUE(wal::WriteCheckpoint(replica_dir, 0, 1, data).ok());
  std::vector<wal::CheckpointFileInfo> checkpoints =
      wal::ListCheckpoints(replica_dir);
  ASSERT_EQ(checkpoints.size(), 1u);
  Result<std::string> checkpoint_bytes =
      wal::ReadFileToString(checkpoints[0].path);
  ASSERT_TRUE(checkpoint_bytes.ok());

  const std::string segment = wal::SegmentFileName(1);
  const std::string frames = wal::EncodeFrame(1, "this is not a record");
  ASSERT_TRUE(wal::AtomicWriteFile(
                  (fs::path(replica_dir) / segment).string(), frames)
                  .ok());

  Manifest manifest;
  manifest.seq = 1;
  manifest.generation = 1;
  manifest.checkpoint.file =
      fs::path(checkpoints[0].path).filename().string();
  manifest.checkpoint.lsn = 0;
  manifest.checkpoint.bytes = checkpoint_bytes->size();
  manifest.checkpoint.crc =
      wal::Crc32c(checkpoint_bytes->data(), checkpoint_bytes->size());
  ManifestSegment seg;
  seg.file = segment;
  seg.start_lsn = 1;
  seg.last_lsn = 1;
  seg.bytes = frames.size();
  seg.crc = wal::Crc32c(frames.data(), frames.size());
  seg.tail = true;
  manifest.segments.push_back(seg);
  PublishManifest(replica_dir, manifest);

  Follower follower(replica_dir, FastFollowerOptions());
  ExpectQuarantined(&follower, "CAD205");
}

TEST(ReplicationQuarantineTest, QuarantineSurvivesFollowerRestart) {
  const std::string primary_dir = TestDir("qpersist_primary");
  const std::string replica_dir = TestDir("qpersist_replica");
  FollowedPair pair = MakeFollowedPair(primary_dir, replica_dir);
  Manifest manifest = CurrentManifest(replica_dir);
  manifest.seq += 1;
  manifest.generation = 0;
  PublishManifest(replica_dir, manifest);
  ExpectQuarantined(pair.follower.get(), "CAD201");

  // A brand-new Follower over the same replica directory restores the
  // quarantine from disk — bouncing the process must not re-apply
  // divergent data.
  Follower restarted(replica_dir, FastFollowerOptions());
  EXPECT_EQ(restarted.state(), FollowerState::kQuarantined);
  EXPECT_EQ(restarted.quarantine_code(), "CAD201");
  EXPECT_FALSE(restarted.quarantine_reason().empty());
  auto poll = restarted.Poll();
  EXPECT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), Code::kFailedPrecondition);
  ASSERT_TRUE(pair.primary->Close().ok());
}

// ---- Retry / backoff / deadline ----

TEST(ReplicationRetryTest, TransientReadFailuresBackOffWithCappedDoubling) {
  const std::string primary_dir = TestDir("retry_primary");
  const std::string replica_dir = TestDir("retry_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  Shipper shipper((*primary).get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());

  std::vector<uint64_t> sleeps;
  int failures_left = 2;
  FollowerOptions options;
  options.max_attempts = 5;
  options.initial_backoff_us = 1000;
  options.max_backoff_us = 2500;
  options.backoff_jitter = 0;  // assert the exact schedule
  options.sleeper = [&sleeps](uint64_t us) { sleeps.push_back(us); };
  options.file_reader = [&failures_left](const std::string& path)
      -> Result<std::string> {
    if (failures_left > 0) {
      --failures_left;
      return Unavailable("injected transient failure for " + path);
    }
    return wal::ReadFileToString(path);
  };
  Follower follower(replica_dir, options);
  auto poll = follower.Poll();
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  EXPECT_TRUE(poll->advanced);
  // The manifest read burned the two injected failures, sleeping the
  // capped-doubling schedule between attempts: 1000, then 2000 (2500 caps
  // any later ones, but the third attempt succeeded).
  ASSERT_GE(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], 1000u);
  EXPECT_EQ(sleeps[1], 2000u);
  // Attempts: 3 for the manifest, 1 for each referenced file (checkpoint,
  // page file if the primary ships one, and every segment).
  const Manifest current = CurrentManifest(replica_dir);
  EXPECT_EQ(poll->read_attempts,
            2u + 1u + current.segments.size() + 1u +
                (current.pagefile.present ? 1u : 0u));
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(ReplicationRetryTest, ExhaustedRetriesReportUnavailableAndKeepServing) {
  const std::string primary_dir = TestDir("exhaust_primary");
  const std::string replica_dir = TestDir("exhaust_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  Shipper shipper((*primary).get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());

  std::vector<uint64_t> sleeps;
  FollowerOptions options = FastFollowerOptions(&sleeps);
  options.max_attempts = 4;
  options.initial_backoff_us = 100;
  options.max_backoff_us = 250;
  options.file_reader = [](const std::string& path) -> Result<std::string> {
    return Unavailable("replica storage offline: " + path);
  };
  Follower follower(replica_dir, options);
  auto poll = follower.Poll();
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), Code::kUnavailable);
  EXPECT_EQ(follower.state(), FollowerState::kNeverSynced);
  // max_attempts attempts, a sleep between each pair, capped at 250us.
  EXPECT_EQ(sleeps, (std::vector<uint64_t>{100, 200, 250}));
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(ReplicationRetryTest, BackoffJitterStaysInsideItsEnvelope) {
  // Each retry delay is backoff - u*jitter*backoff for a fresh uniform
  // draw u: always inside [backoff*(1-jitter), backoff], and the underlying
  // doubling schedule is unaffected by what the draws were. Injected draws
  // pin the arithmetic exactly; a default-constructed follower fleet gets
  // independent per-follower RNGs so a lost shipment is not retried in
  // lockstep.
  const std::string primary_dir = TestDir("jitter_primary");
  const std::string replica_dir = TestDir("jitter_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  Shipper shipper((*primary).get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());

  const std::vector<double> draws = {0.0, 1.0, 0.5, 0.25};
  std::vector<uint64_t> sleeps;
  FollowerOptions options;
  options.max_attempts = 5;
  options.initial_backoff_us = 1000;
  options.max_backoff_us = 8000;
  options.backoff_jitter = 0.5;
  size_t draw_index = 0;
  options.jitter_source = [&draws, &draw_index] {
    return draws[draw_index++ % draws.size()];
  };
  options.sleeper = [&sleeps](uint64_t us) { sleeps.push_back(us); };
  options.file_reader = [](const std::string& path) -> Result<std::string> {
    return Unavailable("replica storage offline: " + path);
  };
  Follower follower(replica_dir, options);
  ASSERT_FALSE(follower.Poll().ok());

  // Unjittered schedule would be 1000, 2000, 4000, 8000; each delay is
  // shaved by u*0.5*backoff for the injected draws 0.0, 1.0, 0.5, 0.25.
  ASSERT_EQ(sleeps.size(), 4u);
  EXPECT_EQ(sleeps[0], 1000u);  // u=0.0: no shave
  EXPECT_EQ(sleeps[1], 1000u);  // u=1.0: full half shaved off 2000
  EXPECT_EQ(sleeps[2], 3000u);  // u=0.5: 4000 - 1000
  EXPECT_EQ(sleeps[3], 7000u);  // u=0.25: 8000 - 1000
  for (size_t i = 0; i < sleeps.size(); ++i) {
    const uint64_t backoff = std::min<uint64_t>(1000u << i, 8000u);
    EXPECT_GE(sleeps[i], backoff / 2) << "delay " << i;
    EXPECT_LE(sleeps[i], backoff) << "delay " << i;
  }

  // The default (no injected source) still lands inside the envelope.
  std::vector<uint64_t> default_sleeps;
  FollowerOptions defaults;
  defaults.max_attempts = 4;
  defaults.initial_backoff_us = 1000;
  defaults.max_backoff_us = 8000;
  defaults.sleeper = [&default_sleeps](uint64_t us) {
    default_sleeps.push_back(us);
  };
  defaults.file_reader = [](const std::string& path) -> Result<std::string> {
    return Unavailable("replica storage offline: " + path);
  };
  Follower default_follower(replica_dir, defaults);
  ASSERT_FALSE(default_follower.Poll().ok());
  ASSERT_EQ(default_sleeps.size(), 3u);
  for (size_t i = 0; i < default_sleeps.size(); ++i) {
    const uint64_t backoff = 1000u << i;
    EXPECT_GE(default_sleeps[i], backoff / 2) << "delay " << i;
    EXPECT_LE(default_sleeps[i], backoff) << "delay " << i;
  }
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(ReplicationRetryTest, ReadsPastTheDeadlineCountAsFailures) {
  // The injectable clock makes every read take 5000us against a 1000us
  // deadline: the bytes arrive, but too late to trust — each attempt counts
  // as failed and the poll ends kUnavailable.
  const std::string primary_dir = TestDir("deadline_primary");
  const std::string replica_dir = TestDir("deadline_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  Shipper shipper((*primary).get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());

  uint64_t now = 0;
  FollowerOptions options = FastFollowerOptions();
  options.max_attempts = 2;
  options.attempt_timeout_us = 1000;
  options.clock_us = [&now] {
    now += 5000;  // every clock sample is one slow read apart
    return now;
  };
  Follower follower(replica_dir, options);
  auto poll = follower.Poll();
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), Code::kUnavailable);
  EXPECT_NE(poll.status().message().find("deadline"), std::string::npos)
      << poll.status().ToString();
  EXPECT_EQ(follower.state(), FollowerState::kNeverSynced);
  ASSERT_TRUE((*primary)->Close().ok());
}

// ---- Promotion ----

TEST(ReplicationPromotionTest, PromoteYieldsAWritableNextGenerationPrimary) {
  const std::string primary_dir = TestDir("promote_primary");
  const std::string replica_dir = TestDir("promote_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  const uint64_t primary_generation = (*primary)->generation();
  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 2).ok());
  Shipper shipper((*primary).get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());
  const std::string oracle = CanonicalDump(**primary);
  ASSERT_TRUE((*primary)->Close().ok());  // the primary "dies"

  Follower follower(replica_dir, FastFollowerOptions());
  ASSERT_TRUE(follower.Poll().ok());
  auto promoted = follower.Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(follower.state(), FollowerState::kPromoted);
  EXPECT_EQ(follower.db(), nullptr);

  // Same state, next generation, fully writable and durable.
  EXPECT_EQ(CanonicalDump(**promoted), oracle);
  EXPECT_FALSE((*promoted)->read_only());
  EXPECT_TRUE((*promoted)->durable());
  EXPECT_EQ((*promoted)->generation(), primary_generation + 1);
  EXPECT_TRUE((*promoted)->recovery_report().fsck_ran);
  ASSERT_TRUE(ApplyStage((*promoted).get(), 3).ok());

  // Following has ended; the promoted database carries on as a primary
  // whose directory survives its own restart.
  auto poll = follower.Poll();
  EXPECT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), Code::kFailedPrecondition);
  const std::string after_writes = CanonicalDump(**promoted);
  ASSERT_TRUE((*promoted)->Close().ok());
  auto reopened = Database::Open(follower.staged_dir());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(CanonicalDump(**reopened), after_writes);
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST(ReplicationPromotionTest, PromoteAppliesAFinalShipmentFirst) {
  // Records shipped after the last poll still make it: Promote runs one
  // final catch-up poll before taking over.
  const std::string primary_dir = TestDir("promote_final_primary");
  const std::string replica_dir = TestDir("promote_final_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(ApplyStage((*primary).get(), 1).ok());
  Shipper shipper((*primary).get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());
  Follower follower(replica_dir, FastFollowerOptions());
  ASSERT_TRUE(follower.Poll().ok());

  ASSERT_TRUE(ApplyStage((*primary).get(), 2).ok());
  ASSERT_TRUE(shipper.ShipNow().ok());  // shipped but never polled
  const std::string oracle = CanonicalDump(**primary);
  ASSERT_TRUE((*primary)->Close().ok());

  auto promoted = follower.Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(CanonicalDump(**promoted), oracle);
  ASSERT_TRUE((*promoted)->Close().ok());
}

TEST(ReplicationPromotionTest, NeverSyncedReplicaRefusesPromotion) {
  const std::string replica_dir = TestDir("promote_empty_replica");
  Follower follower(replica_dir, FastFollowerOptions());
  auto promoted = follower.Promote();
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), Code::kFailedPrecondition);
  EXPECT_NE(promoted.status().message().find("never applied"),
            std::string::npos)
      << promoted.status().ToString();
}

// ---- Manifest and fault-plan units ----

TEST(ManifestTest, EncodeDecodeRoundTrips) {
  Manifest manifest;
  manifest.seq = 42;
  manifest.generation = 7;
  manifest.checkpoint = {"checkpoint-0000000000000010.db", 16, 1234,
                         0xdeadbeef};
  manifest.segments.push_back(
      {"wal-0000000000000011.log", 17, 30, 512, 0x1234u, false});
  manifest.segments.push_back(
      {"wal-000000000000001f.log", 31, 40, 256, 0x9abcu, true});
  Result<Manifest> decoded = Manifest::Decode(manifest.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->generation, 7u);
  EXPECT_EQ(decoded->checkpoint.file, manifest.checkpoint.file);
  EXPECT_EQ(decoded->checkpoint.crc, manifest.checkpoint.crc);
  ASSERT_EQ(decoded->segments.size(), 2u);
  EXPECT_FALSE(decoded->segments[0].tail);
  EXPECT_TRUE(decoded->segments[1].tail);
  EXPECT_EQ(decoded->shipped_lsn(), 40u);
  EXPECT_TRUE(decoded->Validate().ok()) << decoded->Validate().ToString();
}

TEST(ManifestTest, DecodeRejectsTamperedOrTruncatedText) {
  Manifest manifest;
  manifest.seq = 1;
  manifest.generation = 1;
  manifest.checkpoint = {"checkpoint-0000000000000000.db", 0, 10, 1};
  std::string encoded = manifest.Encode();

  std::string tampered = encoded;
  tampered[encoded.size() / 3] ^= 0x01;
  EXPECT_EQ(Manifest::Decode(tampered).status().code(), Code::kParseError);

  std::string truncated = encoded.substr(0, encoded.size() / 2);
  EXPECT_EQ(Manifest::Decode(truncated).status().code(), Code::kParseError);

  EXPECT_EQ(Manifest::Decode("not a manifest\n").status().code(),
            Code::kParseError);
}

TEST(ManifestTest, ValidateCatchesStructuralNonsense) {
  Manifest manifest;
  manifest.seq = 1;
  manifest.generation = 1;
  manifest.checkpoint = {"checkpoint-0000000000000005.db", 5, 10, 1};
  manifest.segments.push_back(
      {"wal-0000000000000006.log", 6, 9, 100, 2, false});
  manifest.segments.push_back(
      {"wal-000000000000000a.log", 10, 12, 100, 3, true});
  ASSERT_TRUE(manifest.Validate().ok()) << manifest.Validate().ToString();

  Manifest seam_gap = manifest;
  seam_gap.segments[1].start_lsn = 11;
  EXPECT_FALSE(seam_gap.Validate().ok());

  Manifest anchor_gap = manifest;
  anchor_gap.segments[0].start_lsn = 8;
  EXPECT_FALSE(anchor_gap.Validate().ok());

  Manifest tail_not_last = manifest;
  tail_not_last.segments[0].tail = true;
  EXPECT_FALSE(tail_not_last.Validate().ok());

  Manifest backwards = manifest;
  backwards.segments[0].last_lsn = 3;
  EXPECT_FALSE(backwards.Validate().ok());
}

// ---- Reseed (operator recovery from quarantine) ----

TEST(ReplicationReseedTest, ReseedAppliesFreshShipmentAndClearsQuarantine) {
  const std::string primary_dir = TestDir("reseed_primary");
  const std::string replica_dir = TestDir("reseed_replica");
  FollowedPair pair = MakeFollowedPair(primary_dir, replica_dir);
  Manifest manifest = CurrentManifest(replica_dir);
  manifest.seq += 1;
  manifest.generation = 0;
  PublishManifest(replica_dir, manifest);
  ExpectQuarantined(pair.follower.get(), "CAD201");
  EXPECT_TRUE(fs::exists(fs::path(replica_dir) / "QUARANTINE"));

  // The operator decides the primary's current history is the new truth:
  // the primary ships clean again (seq seeds past the tampered manifest),
  // then reseed re-stages from scratch.
  ASSERT_TRUE(ApplyStage(pair.primary.get(), 2).ok());
  ASSERT_TRUE(pair.shipper->ShipNow().ok());
  auto reseeded = pair.follower->Reseed();
  ASSERT_TRUE(reseeded.ok()) << reseeded.status().ToString();
  EXPECT_TRUE(reseeded->advanced);
  EXPECT_EQ(pair.follower->state(), FollowerState::kFollowing);
  EXPECT_TRUE(pair.follower->quarantine_code().empty());
  EXPECT_FALSE(fs::exists(fs::path(replica_dir) / "QUARANTINE"))
      << "successful rebuild must delete the persisted verdict";
  ASSERT_NE(pair.follower->db(), nullptr);
  EXPECT_EQ(CanonicalDump(*pair.follower->db()),
            CanonicalDump(*pair.primary));

  // Following continues normally afterwards.
  ASSERT_TRUE(ApplyStage(pair.primary.get(), 3).ok());
  ASSERT_TRUE(pair.shipper->ShipNow().ok());
  auto next = pair.follower->Poll();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE(next->advanced);
  ASSERT_TRUE(pair.primary->Close().ok());
}

TEST(ReplicationReseedTest, FailedReseedRestoresTheVerdict) {
  const std::string primary_dir = TestDir("reseed_fail_primary");
  const std::string replica_dir = TestDir("reseed_fail_replica");
  FollowedPair pair = MakeFollowedPair(primary_dir, replica_dir);
  Manifest manifest = CurrentManifest(replica_dir);
  manifest.seq += 1;
  manifest.generation = 0;
  PublishManifest(replica_dir, manifest);
  ExpectQuarantined(pair.follower.get(), "CAD201");

  // Transport is down: no manifest at all. The reseed goes nowhere, so it
  // must not unlock the replica.
  ASSERT_TRUE(
      fs::remove(fs::path(replica_dir) / kManifestFileName));
  auto reseeded = pair.follower->Reseed();
  ASSERT_FALSE(reseeded.ok());
  EXPECT_EQ(reseeded.status().code(), Code::kFailedPrecondition)
      << reseeded.status().ToString();
  EXPECT_EQ(pair.follower->state(), FollowerState::kQuarantined);
  EXPECT_EQ(pair.follower->quarantine_code(), "CAD201");
  EXPECT_TRUE(fs::exists(fs::path(replica_dir) / "QUARANTINE"));

  // A process bounce still restores the quarantine from disk.
  Follower restarted(replica_dir, FastFollowerOptions());
  EXPECT_EQ(restarted.state(), FollowerState::kQuarantined);
  EXPECT_EQ(restarted.quarantine_code(), "CAD201");
  ASSERT_TRUE(pair.primary->Close().ok());
}

TEST(ReplicationReseedTest, ShellReseedPrintsVerdictAndClears) {
  const std::string primary_dir = TestDir("shell_reseed_primary");
  const std::string replica_dir = TestDir("shell_reseed_replica");
  FollowedPair pair = MakeFollowedPair(primary_dir, replica_dir);
  Manifest manifest = CurrentManifest(replica_dir);
  manifest.seq += 1;
  manifest.generation = 0;
  PublishManifest(replica_dir, manifest);
  ExpectQuarantined(pair.follower.get(), "CAD201");

  shell::Dispatcher sh(pair.follower->db());
  sh.AttachFollower(pair.follower.get());

  // `replica status --format=json` surfaces the quarantine verdict.
  std::ostringstream status;
  ASSERT_TRUE(sh.ExecuteLine("replica status --format=json", status));
  EXPECT_EQ(sh.error_count(), 0u) << status.str();
  EXPECT_NE(status.str().find("\"quarantine\":{\"code\":\"CAD201\""),
            std::string::npos)
      << status.str();
  EXPECT_NE(status.str().find("\"is_replica\":true"), std::string::npos);

  // A clean shipment, then the operator reseed: the verdict is echoed
  // before anything happens, then cleared by the successful rebuild.
  ASSERT_TRUE(ApplyStage(pair.primary.get(), 2).ok());
  ASSERT_TRUE(pair.shipper->ShipNow().ok());
  std::ostringstream reseed;
  ASSERT_TRUE(sh.ExecuteLine("replica reseed", reseed));
  EXPECT_EQ(sh.error_count(), 0u) << reseed.str();
  EXPECT_NE(reseed.str().find("quarantined: CAD201:"), std::string::npos)
      << reseed.str();
  EXPECT_NE(reseed.str().find("quarantine cleared"), std::string::npos);
  EXPECT_FALSE(fs::exists(fs::path(replica_dir) / "QUARANTINE"));

  std::ostringstream after;
  ASSERT_TRUE(sh.ExecuteLine("replica status --format=json", after));
  EXPECT_NE(after.str().find("\"state\":\"caught-up\""), std::string::npos)
      << after.str();
  EXPECT_EQ(after.str().find("\"quarantine\""), std::string::npos);
  ASSERT_TRUE(pair.primary->Close().ok());
}

TEST(ReplicationReseedTest, ReseedRefusesWhenNotQuarantined) {
  const std::string primary_dir = TestDir("reseed_clean_primary");
  const std::string replica_dir = TestDir("reseed_clean_replica");
  FollowedPair pair = MakeFollowedPair(primary_dir, replica_dir);
  auto reseeded = pair.follower->Reseed();
  ASSERT_FALSE(reseeded.ok());
  EXPECT_EQ(reseeded.status().code(), Code::kFailedPrecondition);
  EXPECT_EQ(pair.follower->state(), FollowerState::kFollowing)
      << "a refused reseed must not disturb a healthy follower";
  ASSERT_TRUE(pair.primary->Close().ok());
}

}  // namespace
}  // namespace replication
}  // namespace caddb
