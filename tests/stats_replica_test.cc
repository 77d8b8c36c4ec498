// DatabaseStats::Collect over replica databases: the replication telemetry
// block in all three follower conditions (caught-up, catching-up with a
// non-zero replica_lag, quarantined), its JSON rendering, and the metrics
// snapshot a follower-built database carries (every rebuild reports into
// the follower's one bundle, so its counts accumulate across rebuilds).

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/database.h"
#include "core/paper_schemas.h"
#include "core/stats.h"
#include "obs/exposition.h"
#include "replication/follower.h"
#include "replication/manifest.h"
#include "replication/shipper.h"
#include "wal/log_io.h"

namespace caddb {
namespace {

namespace fs = std::filesystem;

using replication::Follower;
using replication::FollowerOptions;
using replication::FollowerState;
using replication::Manifest;
using replication::Shipper;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::current_path() / "stats_replica_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

FollowerOptions FastFollowerOptions() {
  FollowerOptions options;
  options.max_attempts = 3;
  options.sleeper = [](uint64_t) {};
  return options;
}

Status SomeWork(Database* db) {
  CADDB_RETURN_IF_ERROR(db->ExecuteDdl(schemas::kGatesBase));
  CADDB_ASSIGN_OR_RETURN(Surrogate gate, db->CreateObject("SimpleGate"));
  return db->Set(gate, "Length", Value::Int(7));
}

TEST(StatsReplicaTest, CaughtUpFollowerDatabase) {
  const std::string primary_dir = TestDir("caughtup_primary");
  const std::string replica_dir = TestDir("caughtup_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  ASSERT_TRUE(SomeWork(primary->get()).ok());
  Shipper shipper(primary->get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());

  Follower follower(replica_dir, FastFollowerOptions());
  auto poll = follower.Poll();
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  ASSERT_TRUE(poll->advanced);
  ASSERT_NE(follower.db(), nullptr);

  DatabaseStats stats = DatabaseStats::Collect(*follower.db());
  EXPECT_TRUE(stats.is_replica);
  EXPECT_EQ(stats.replica_state, "caught-up");
  EXPECT_EQ(stats.replica_lag, 0u);
  EXPECT_EQ(stats.replica_manifest_seq, 1u);
  EXPECT_GT(stats.replay_lsn, 0u);
  EXPECT_EQ(stats.replay_lsn, stats.shipped_lsn);
  EXPECT_GT(stats.total_objects, 0u);

  // The rebuilt database reports into the follower's bundle: the metrics
  // snapshot Collect captured includes the replication instruments.
  const obs::CounterSample* polls =
      stats.metrics.FindCounter("caddb_replication_polls_total");
  ASSERT_NE(polls, nullptr);
  EXPECT_EQ(polls->value, 1u);
  const obs::CounterSample* rebuilds =
      stats.metrics.FindCounter("caddb_replication_rebuilds_total");
  ASSERT_NE(rebuilds, nullptr);
  EXPECT_EQ(rebuilds->value, 1u);
  const obs::GaugeSample* lag =
      stats.metrics.FindGauge("caddb_replication_replica_lag");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->value, 0);

  // Human and JSON renderings both carry the replica block.
  EXPECT_NE(stats.ToString().find("replica:"), std::string::npos);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"replica\":"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"caught-up\""), std::string::npos);
  EXPECT_NE(json.find("\"lag\":0"), std::string::npos);
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(StatsReplicaTest, CatchingUpReplicaReportsLag) {
  // A replica mid-catch-up: the shipped watermark is ahead of what has been
  // replayed. The follower only exposes this window transiently (a rebuild
  // replays the whole shipped prefix), so construct the telemetry the way
  // the follower does — via set_replica_info on a read-only database — and
  // check Collect surfaces the lag arithmetic.
  const std::string dir = TestDir("catching_up");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(SomeWork(db->get()).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto replica = Database::OpenReadOnly(dir);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ReplicaInfo info;
  info.is_replica = true;
  info.state = "following";
  info.generation = 1;
  info.manifest_seq = 4;
  info.replay_lsn = 10;
  info.shipped_lsn = 25;
  (*replica)->set_replica_info(info);

  DatabaseStats stats = DatabaseStats::Collect(**replica);
  EXPECT_TRUE(stats.is_replica);
  EXPECT_EQ(stats.replica_state, "following");
  EXPECT_EQ(stats.replay_lsn, 10u);
  EXPECT_EQ(stats.shipped_lsn, 25u);
  EXPECT_EQ(stats.replica_lag, 15u);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"state\":\"following\""), std::string::npos);
  EXPECT_NE(json.find("\"lag\":15"), std::string::npos);
}

TEST(StatsReplicaTest, QuarantinedFollowerDatabase) {
  const std::string primary_dir = TestDir("quarantine_primary");
  const std::string replica_dir = TestDir("quarantine_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  ASSERT_TRUE(SomeWork(primary->get()).ok());
  Shipper shipper(primary->get(), replica_dir);
  ASSERT_TRUE(shipper.ShipNow().ok());
  Follower follower(replica_dir, FastFollowerOptions());
  ASSERT_TRUE(follower.Poll().ok());

  // Publish a generation regression: the next poll quarantines (CAD201).
  auto manifest_bytes = wal::ReadFileToString(
      (fs::path(replica_dir) / replication::kManifestFileName).string());
  ASSERT_TRUE(manifest_bytes.ok());
  auto manifest = Manifest::Decode(*manifest_bytes);
  ASSERT_TRUE(manifest.ok());
  manifest->seq += 1;
  manifest->generation = 0;
  ASSERT_TRUE(wal::AtomicWriteFile(
                  (fs::path(replica_dir) / replication::kManifestFileName)
                      .string(),
                  manifest->Encode())
                  .ok());
  EXPECT_FALSE(follower.Poll().ok());
  ASSERT_EQ(follower.state(), FollowerState::kQuarantined);

  // The previously applied database stays served; the follower's current
  // verdict is what operators see, so stamp it onto the served database the
  // way `replica status` reads it and collect.
  ASSERT_NE(follower.db(), nullptr);
  follower.db()->set_replica_info(follower.replica_info());
  DatabaseStats stats = DatabaseStats::Collect(*follower.db());
  EXPECT_TRUE(stats.is_replica);
  EXPECT_EQ(stats.replica_state, "quarantined (CAD201)");
  const obs::CounterSample* quarantines =
      stats.metrics.FindCounter("caddb_replication_quarantines_total");
  ASSERT_NE(quarantines, nullptr);
  EXPECT_EQ(quarantines->value, 1u);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("quarantined (CAD201)"), std::string::npos);
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(StatsReplicaTest, CacheCountsAccumulateAcrossRebuilds) {
  const std::string primary_dir = TestDir("cumulative_primary");
  const std::string replica_dir = TestDir("cumulative_replica");
  auto primary = Database::Open(primary_dir);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  ASSERT_TRUE((*primary)->ExecuteDdl(schemas::kGatesBase).ok());
  ASSERT_TRUE((*primary)->ExecuteDdl(schemas::kGatesInterfaces).ok());
  const Surrogate iface = (*primary)->CreateObject("GateInterface").value();
  const Surrogate impl =
      (*primary)->CreateObject("GateImplementation").value();
  ASSERT_TRUE((*primary)->Bind(impl, iface, "AllOf_GateInterface").ok());
  Shipper shipper(primary->get(), replica_dir);
  obs::Observability bundle;  // what caddb_server scrapes in follower mode
  FollowerOptions options = FastFollowerOptions();
  options.obs = &bundle;
  Follower follower(replica_dir, options);
  obs::Counter* hits =
      bundle.metrics.GetCounter("caddb_inherit_cache_hits_total");
  uint64_t hits_after_first_poll = 0;
  for (int64_t length = 1; length <= 2; ++length) {
    ASSERT_TRUE((*primary)->Set(iface, "Length", Value::Int(length)).ok());
    // Checkpointed, so the replica's surrogates are the primary's.
    ASSERT_TRUE((*primary)->Checkpoint().ok());
    ASSERT_TRUE(shipper.ShipNow().ok());
    auto poll = follower.Poll();
    ASSERT_TRUE(poll.ok() && poll->advanced);
    follower.db()->inheritance().EnableCache(true);
    for (int read = 0; read < 2; ++read) {
      EXPECT_EQ(follower.db()->Get(impl, "Length")->AsInt(), length);
    }
    if (length == 1) hits_after_first_poll = hits->value();
  }
  ASSERT_GT(hits_after_first_poll, 0u);
  EXPECT_GT(hits->value(), hits_after_first_poll);
  EXPECT_EQ(follower.db()->inheritance().cache_hits(), hits->value());
  // `stats` on the current rebuild and the /metrics scrape agree.
  const std::string total = std::to_string(hits->value());
  EXPECT_NE(DatabaseStats::Collect(*follower.db()).ToString().find(
                "entries; " + total + " hits"),
            std::string::npos);
  EXPECT_NE(obs::RenderPrometheus(bundle.metrics.Snapshot())
                .find("caddb_inherit_cache_hits_total " + total + "\n"),
            std::string::npos);
  ASSERT_TRUE((*primary)->Close().ok());
}

TEST(StatsReplicaTest, NonReplicaOmitsReplicaBlock) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(schemas::kGatesBase).ok());
  DatabaseStats stats = DatabaseStats::Collect(db);
  EXPECT_FALSE(stats.is_replica);
  EXPECT_EQ(stats.ToString().find("replica:"), std::string::npos);
  EXPECT_EQ(stats.ToJson().find("\"replica\":"), std::string::npos);
  // The metrics snapshot is still there — every database has a registry.
  EXPECT_NE(stats.metrics.FindCounter("caddb_inherit_cache_hits_total"),
            nullptr);
}

}  // namespace
}  // namespace caddb
