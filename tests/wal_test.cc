#include "wal/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "codec_corpus.h"
#include "core/database.h"
#include "core/paper_schemas.h"
#include "core/stats.h"
#include "persist/dump.h"
#include "shell/dispatcher.h"
#include "wal/checkpoint.h"
#include "wal/crc32c.h"
#include "wal/log_io.h"
#include "wal/record.h"
#include "wal/recovery.h"

namespace caddb {
namespace wal {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory under the build tree (never /tmp).
std::string TestDir(const std::string& name) {
  fs::path dir = fs::current_path() / "wal_test_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

constexpr char kPlateSchema[] =
    "obj-type Plate =\n"
    "  attributes:\n"
    "    Thickness: integer;\n"
    "end Plate;\n";

/// Dump -> load into a fresh database -> dump: normalizes surrogate
/// numbering so states reached along different histories compare equal.
std::string CanonicalDump(const Database& db) {
  Result<std::string> dump = persist::Dumper::Dump(db);
  EXPECT_TRUE(dump.ok()) << dump.status().ToString();
  Database fresh;
  Status loaded = persist::Dumper::Load(*dump, &fresh);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  Result<std::string> again = persist::Dumper::Dump(fresh);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  return *again;
}

// ---- Record encoding ----

using codec_corpus::AllRecordKinds;

TEST(WalRecordTest, EncodeDecodeRoundTrips) {
  for (const Record& r : AllRecordKinds()) {
    std::string payload = r.Encode();
    Result<Record> decoded = Record::Decode(payload);
    ASSERT_TRUE(decoded.ok())
        << payload << ": " << decoded.status().ToString();
    EXPECT_TRUE(*decoded == r) << payload;
  }
}

TEST(WalRecordTest, MalformedPayloadsRejected) {
  std::vector<std::string> bad;
  for (const Record& r : AllRecordKinds()) {
    const std::string payload = r.Encode();
    // Every strict truncation, and trailing bytes.
    for (size_t n = 0; n < payload.size(); ++n) {
      bad.push_back(payload.substr(0, n));
    }
    bad.push_back(payload + std::string(1, '\0'));
  }
  // Type byte, txn varint, field-presence mask: begin 7 is "\x00\x07\x00".
  bad.push_back(std::string("\x13\x07\x00", 3));  // one past kMarkResolved
  bad.push_back(std::string("\xff\x07\x00", 3));
  bad.push_back(std::string("\x00\x07\x02\x05", 4));  // begin carrying `a`
  bad.push_back(std::string("\x00\x87\x00\x00", 4));  // overlong txn
  bad.push_back(std::string("\x0a\x00\x00", 3));  // unbind without `a`
  // delete @12 with a `b` field: the mask's `b` bit is not allowed.
  bad.push_back(std::string("\x0c\x00\x06\x0c\x0d", 5));
  // create with a present but empty optional class name.
  bad.push_back(std::string("\x05\x00\x19\x0c\x01P\x00", 7));
  for (const std::string& payload : bad) {
    EXPECT_FALSE(Record::Decode(payload).ok())
        << "accepted " << ::testing::PrintToString(payload);
  }
}

// ---- Frames ----

TEST(WalFrameTest, RoundTripsAndStopsAtCorruption) {
  std::string data;
  std::vector<std::string> payloads = {"alpha", "beta", "gamma gamma gamma"};
  for (size_t i = 0; i < payloads.size(); ++i) {
    data += EncodeFrame(100 + i, payloads[i]);
  }
  SegmentContents all = DecodeFrames(data);
  ASSERT_EQ(all.frames.size(), 3u) << all.tail_error;
  EXPECT_TRUE(all.tail_error.empty());
  EXPECT_EQ(all.frames[0].lsn, 100u);
  EXPECT_EQ(all.frames[1].payload, "beta");
  EXPECT_EQ(all.frames[2].payload, "gamma gamma gamma");
  EXPECT_EQ(all.frames.back().end_offset, data.size());

  // Flip one payload byte of the second frame: CRC catches it, the first
  // frame survives, scanning stops.
  std::string corrupt = data;
  corrupt[all.frames[0].end_offset + kFrameHeaderBytes] ^= 0x40;
  SegmentContents cut = DecodeFrames(corrupt);
  EXPECT_EQ(cut.frames.size(), 1u);
  EXPECT_NE(cut.tail_error.find("checksum"), std::string::npos)
      << cut.tail_error;
}

TEST(WalFrameTest, TornTailDetectedAtEveryTruncation) {
  std::string data = EncodeFrame(1, "first") + EncodeFrame(2, "second");
  size_t first_end = DecodeFrames(data).frames[0].end_offset;
  for (size_t cut = 0; cut < data.size(); ++cut) {
    SegmentContents got = DecodeFrames(data.substr(0, cut));
    size_t want_frames = cut < first_end ? 0u : 1u;
    EXPECT_EQ(got.frames.size(), want_frames) << "cut at " << cut;
    // A cut exactly on a frame boundary (incl. 0) is a clean tail.
    if (cut == 0 || cut == first_end) {
      EXPECT_TRUE(got.tail_error.empty()) << "cut at " << cut;
    } else {
      EXPECT_FALSE(got.tail_error.empty()) << "cut at " << cut;
    }
  }
}

TEST(WalFrameTest, MaskedCrcDiffersFromRaw) {
  uint32_t raw = Crc32c("hello", 5);
  EXPECT_NE(Crc32cMask(raw), raw);
  EXPECT_EQ(Crc32cUnmask(Crc32cMask(raw)), raw);
}

// ---- Fault injection ----

TEST(FailpointFileTest, DropsEverythingPastTheBudget) {
  std::string dir = TestDir("failpoint");
  std::string path = dir + "/cut.bin";
  auto base = OpenWritableFile(path);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  FailpointFile file(std::move(*base), 10);
  // 6 bytes fit, the next append is torn after 4 more, the last is dropped
  // entirely — and every call still reports success.
  EXPECT_TRUE(file.Append("abcdef").ok());
  EXPECT_FALSE(file.triggered());
  EXPECT_TRUE(file.Append("ghijKLMN").ok());
  EXPECT_TRUE(file.triggered());
  EXPECT_TRUE(file.Append("dropped").ok());
  EXPECT_TRUE(file.Sync().ok());
  EXPECT_TRUE(file.Close().ok());
  Result<std::string> contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "abcdefghij");
}

// ---- Wal append / group commit ----

TEST(WalTest, AlwaysPolicySyncsEveryCommit) {
  std::string dir = TestDir("wal_always");
  WalOptions options;
  options.sync = SyncPolicy::kAlways;
  auto wal = Wal::Open(dir, options, 1);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*wal)->AppendCommit(Record::Commit(i + 1)).ok());
  }
  WalStats stats = (*wal)->stats();
  EXPECT_EQ(stats.commits, 5u);
  EXPECT_GE(stats.fsyncs, 5u);
  EXPECT_EQ(stats.last_lsn, 5u);
  EXPECT_EQ(stats.synced_lsn, 5u);
  EXPECT_TRUE((*wal)->Close().ok());
}

TEST(WalTest, BatchPolicyGroupsSyncs) {
  std::string dir = TestDir("wal_batch");
  WalOptions options;
  options.sync = SyncPolicy::kBatch;
  options.batch_commits = 8;
  options.batch_interval_us = 60 * 1000 * 1000;  // never by age in this test
  auto wal = Wal::Open(dir, options, 1);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE((*wal)->AppendCommit(Record::Commit(i + 1)).ok());
  }
  WalStats stats = (*wal)->stats();
  EXPECT_EQ(stats.commits, 32u);
  EXPECT_LE(stats.fsyncs, 4u + 1u);  // one per batch of 8 (+ slack)
  EXPECT_TRUE((*wal)->Close().ok());
}

TEST(WalTest, RotateAndTruncateDropsOldSegments) {
  std::string dir = TestDir("wal_rotate");
  auto wal = Wal::Open(dir, WalOptions{}, 1);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*wal)->AppendCommit(Record::Commit(i + 1)).ok());
  }
  ASSERT_TRUE((*wal)->RotateAndTruncate().ok());
  std::vector<SegmentFileInfo> segments = ListSegments(dir);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].start_lsn, 4u);
  // The fresh segment keeps accepting appends with continuous lsns.
  Result<uint64_t> lsn = (*wal)->Append(Record::Begin(9));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 4u);
  EXPECT_TRUE((*wal)->Close().ok());
}

// ---- Checkpoint files ----

/// A payload whose meta text identifies it; no page images.
CheckpointData MetaOnly(const std::string& meta) {
  CheckpointData data;
  data.meta = meta;
  return data;
}

/// Publishes a checkpoint in one of the retired formats (1 has no
/// generation field, 2 and 3 have one). The body CRC is valid, so only the
/// version can reject the file.
void WriteRetiredCheckpoint(const std::string& dir, int version,
                            uint64_t lsn) {
  const std::string body = "caddb-dump 1\nschema 0\n";
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                Crc32cMask(Crc32c(body.data(), body.size())));
  std::ofstream f(dir + "/" + CheckpointFileName(lsn));
  f << "caddb-checkpoint " << version << " " << lsn
    << (version >= 2 ? " 1" : "") << " " << body.size() << " " << crc_hex
    << "\n"
    << body;
}

TEST(CheckpointTest, WriteReadRoundTripAndPruning) {
  std::string dir = TestDir("checkpoint_rw");
  ASSERT_TRUE(WriteCheckpoint(dir, 7, 0, MetaOnly("body at 7\n")).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, 42, 0, MetaOnly("body at 42\n")).ok());
  // The older file is pruned once the newer one is published.
  EXPECT_EQ(ListCheckpoints(dir).size(), 1u);
  auto loaded = ReadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lsn, 42u);
  EXPECT_EQ(loaded->meta, "body at 42\n");
}

TEST(CheckpointTest, EmptyDirectoryYieldsNoCheckpoint) {
  std::string dir = TestDir("checkpoint_empty");
  auto loaded = ReadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lsn, 0u);
  EXPECT_TRUE(loaded->meta.empty());
  EXPECT_TRUE(loaded->path.empty());
}

TEST(CheckpointTest, CorruptNewestFallsBackToOlderValidOne) {
  std::string dir = TestDir("checkpoint_corrupt");
  ASSERT_TRUE(WriteCheckpoint(dir, 5, 0, MetaOnly("good body\n")).ok());
  // Fake a newer checkpoint with a damaged body (CRC mismatch).
  {
    std::ofstream f(dir + "/" + CheckpointFileName(9));
    f << "caddb-checkpoint 4 9 0 10 deadbeef\ngarbage..\n";
  }
  auto loaded = ReadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lsn, 5u);
  EXPECT_EQ(loaded->meta, "good body\n");
}

TEST(CheckpointTest, RetiredVersionsAreRejectedByName) {
  for (int version : {1, 2, 3}) {
    SCOPED_TRACE(version);
    std::string dir =
        TestDir("checkpoint_retired_v" + std::to_string(version));
    WriteRetiredCheckpoint(dir, version, 4);
    auto file = ReadCheckpointFile(ListCheckpoints(dir).at(0));
    ASSERT_FALSE(file.ok());
    EXPECT_EQ(file.status().code(), Code::kParseError);
    EXPECT_NE(file.status().message().find(
                  "unsupported checkpoint version " + std::to_string(version)),
              std::string::npos)
        << file.status().ToString();
    // With nothing else on disk there is no snapshot to fall back to.
    auto newest = ReadNewestCheckpoint(dir);
    ASSERT_FALSE(newest.ok());
    EXPECT_NE(newest.status().message().find("unsupported checkpoint version"),
              std::string::npos)
        << newest.status().ToString();
  }
}

TEST(CheckpointTest, OpenRefusesDirectoryWithOnlyRetiredCheckpoint) {
  for (int version : {1, 2, 3}) {
    SCOPED_TRACE(version);
    std::string dir =
        TestDir("checkpoint_retired_open_v" + std::to_string(version));
    {
      // A log with one committed write after the retired checkpoint: the
      // open must fail rather than replay it into an empty store.
      auto db = Database::Open(dir);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
      ASSERT_TRUE((*db)->Close().ok());
    }
    for (const CheckpointFileInfo& info : ListCheckpoints(dir)) {
      fs::remove(info.path);
    }
    WriteRetiredCheckpoint(dir, version, 0);
    auto db = Database::Open(dir);
    ASSERT_FALSE(db.ok()) << "opened over a version-" << version
                          << " checkpoint";
    EXPECT_NE(db.status().message().find("unsupported checkpoint version " +
                                         std::to_string(version)),
              std::string::npos)
        << db.status().ToString();
  }
}

TEST(CheckpointTest, AllCheckpointsDamagedIsAnError) {
  std::string dir = TestDir("checkpoint_all_bad");
  {
    std::ofstream f(dir + "/" + CheckpointFileName(3));
    f << "not a checkpoint at all";
  }
  auto loaded = ReadNewestCheckpoint(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Code::kInternal);
}

// ---- Database::Open lifecycle ----

TEST(DurableDatabaseTest, FreshOpenLogReplayOnReopen) {
  std::string dir = TestDir("db_reopen");
  std::string before;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->durable());
    ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
    Surrogate plate = (*db)->CreateObject("Plate").value();
    ASSERT_TRUE((*db)->Set(plate, "Thickness", Value::Int(4)).ok());
    ASSERT_TRUE((*db)->CreateClass("Thick", "Plate").ok());
    before = CanonicalDump(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const RecoveryReport& report = (*db)->recovery_report();
  EXPECT_GT(report.records_applied, 0u) << report.ToString();
  EXPECT_TRUE(report.tail_error.empty()) << report.ToString();
  EXPECT_TRUE(report.fsck_ran);
  EXPECT_EQ(CanonicalDump(**db), before);
}

TEST(DurableDatabaseTest, ReopenAfterCheckpointReplaysNothing) {
  std::string dir = TestDir("db_checkpointed");
  std::string before;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
    Surrogate plate = (*db)->CreateObject("Plate").value();
    ASSERT_TRUE((*db)->Set(plate, "Thickness", Value::Int(9)).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    before = CanonicalDump(**db);
  }  // destructor closes the log
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const RecoveryReport& report = (*db)->recovery_report();
  EXPECT_GT(report.checkpoint_lsn, 0u) << report.ToString();
  EXPECT_EQ(report.records_applied, 0u) << report.ToString();
  EXPECT_EQ(CanonicalDump(**db), before);
}

TEST(DurableDatabaseTest, UncommittedTransactionDiscardedOnRecovery) {
  std::string dir = TestDir("db_uncommitted");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
    Surrogate plate = (*db)->CreateObject("Plate").value();
    ASSERT_TRUE((*db)->Set(plate, "Thickness", Value::Int(1)).ok());
    TxnId txn = (*db)->transactions().Begin("alice").value();
    ASSERT_TRUE(
        (*db)->transactions().Write(txn, plate, "Thickness", Value::Int(99))
            .ok());
    // Crash with the transaction still open: its records reach the log but
    // no commit marker ever does.
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->recovery_report().txns_discarded, 1u)
      << (*db)->recovery_report().ToString();
  std::vector<Surrogate> plates = (*db)->store().Extent("Plate");
  ASSERT_EQ(plates.size(), 1u);
  EXPECT_EQ((*db)->Get(plates[0], "Thickness").value(), Value::Int(1));
}

TEST(DurableDatabaseTest, CommittedTransactionSurvivesRecovery) {
  std::string dir = TestDir("db_committed");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
    Surrogate plate = (*db)->CreateObject("Plate").value();
    ASSERT_TRUE((*db)->Set(plate, "Thickness", Value::Int(1)).ok());
    TxnId txn = (*db)->transactions().Begin("alice").value();
    ASSERT_TRUE(
        (*db)->transactions().Write(txn, plate, "Thickness", Value::Int(99))
            .ok());
    ASSERT_TRUE((*db)->transactions().Commit(txn).ok());
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->recovery_report().txns_committed, 1u)
      << (*db)->recovery_report().ToString();
  std::vector<Surrogate> plates = (*db)->store().Extent("Plate");
  ASSERT_EQ(plates.size(), 1u);
  EXPECT_EQ((*db)->Get(plates[0], "Thickness").value(), Value::Int(99));
}

TEST(DurableDatabaseTest, AbortedTransactionNotReplayed) {
  std::string dir = TestDir("db_aborted");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
    Surrogate plate = (*db)->CreateObject("Plate").value();
    ASSERT_TRUE((*db)->Set(plate, "Thickness", Value::Int(1)).ok());
    TxnId txn = (*db)->transactions().Begin("alice").value();
    ASSERT_TRUE(
        (*db)->transactions().Write(txn, plate, "Thickness", Value::Int(99))
            .ok());
    ASSERT_TRUE((*db)->transactions().Abort(txn).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->recovery_report().txns_committed, 0u);
  EXPECT_EQ((*db)->recovery_report().txns_discarded, 1u);
  std::vector<Surrogate> plates = (*db)->store().Extent("Plate");
  ASSERT_EQ(plates.size(), 1u);
  EXPECT_EQ((*db)->Get(plates[0], "Thickness").value(), Value::Int(1));
}

TEST(DurableDatabaseTest, CheckpointSpanningActiveTransactionReplaysIt) {
  std::string dir = TestDir("db_ckpt_active_txn");
  std::string before;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
    Surrogate plate = (*db)->CreateObject("Plate").value();
    TxnId txn = (*db)->transactions().Begin("alice").value();
    ASSERT_TRUE(
        (*db)->transactions().Write(txn, plate, "Thickness", Value::Int(99))
            .ok());
    // Incremental checkpoints no longer refuse active transactions: the
    // uncommitted write is masked out of the captured images and the
    // checkpoint records the transaction's begin lsn as its replay floor.
    EXPECT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->transactions().Commit(txn).ok());
    before = CanonicalDump(**db);
    // Crash (no clean Close): the commit record sits after the checkpoint,
    // but the Write it covers sits before it.
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(CanonicalDump(**db), before);
}

TEST(DurableDatabaseTest, NonDurableDatabaseRejectsCheckpoint) {
  Database db;
  EXPECT_FALSE(db.durable());
  EXPECT_EQ(db.Checkpoint().code(), Code::kFailedPrecondition);
}

TEST(DurableDatabaseTest, RecoveryRequiresAnEmptyDatabase) {
  std::string dir = TestDir("db_nonempty_target");
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kPlateSchema).ok());
  auto report = Recover(dir, &db, DurabilityOptions{});
  EXPECT_EQ(report.status().code(), Code::kFailedPrecondition);
}

TEST(DurableDatabaseTest, WorkspaceCheckinSurvivesRecovery) {
  std::string dir = TestDir("db_workspace");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
    Surrogate plate = (*db)->CreateObject("Plate").value();
    ASSERT_TRUE((*db)->Set(plate, "Thickness", Value::Int(1)).ok());
    WorkspaceId ws = (*db)->workspaces().Create("alice").value();
    ASSERT_TRUE((*db)->workspaces().Checkout(ws, plate).ok());
    ASSERT_TRUE(
        (*db)->workspaces().Set(ws, plate, "Thickness", Value::Int(77)).ok());
    ASSERT_TRUE((*db)->workspaces().Checkin(ws).ok());
    // Crash (no clean Close): the checkin batch carried its own commit.
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<Surrogate> plates = (*db)->store().Extent("Plate");
  ASSERT_EQ(plates.size(), 1u);
  EXPECT_EQ((*db)->Get(plates[0], "Thickness").value(), Value::Int(77));
}

// ---- CheckSchema memoization (analyzer satellite) ----

TEST(SchemaMemoTest, CheckSchemaSkipsWhenEpochUnchanged) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kPlateSchema).ok());
  EXPECT_EQ(db.schema_analyses_run(), 0u);
  (void)db.CheckSchema();
  (void)db.CheckSchema();
  (void)db.CheckSchema();
  EXPECT_EQ(db.schema_analyses_run(), 1u);
  EXPECT_EQ(db.schema_analyses_skipped(), 2u);
  // A schema change bumps the catalog epoch and invalidates the memo.
  ASSERT_TRUE(db.ExecuteDdl("obj-type Rod =\n"
                            "  attributes:\n"
                            "    Diameter: integer;\n"
                            "end Rod;\n")
                  .ok());
  (void)db.CheckSchema();
  EXPECT_EQ(db.schema_analyses_run(), 2u);
  DatabaseStats stats = DatabaseStats::Collect(db);
  EXPECT_EQ(stats.metrics.CounterValue("caddb_ddl_schema_analyses_run_total"),
            2u);
  EXPECT_EQ(
      stats.metrics.CounterValue("caddb_ddl_schema_analyses_skipped_total"),
      2u);
  EXPECT_NE(stats.ToString().find("schema analyses"), std::string::npos);
}

TEST(SchemaMemoTest, EagerDdlValidationUsesTheMemo) {
  Database db;
  db.set_eager_ddl_validation(true);
  ASSERT_TRUE(db.ExecuteDdl(kPlateSchema).ok());
  uint64_t runs = db.schema_analyses_run();
  // Re-checking the unchanged schema is free.
  (void)db.CheckSchema();
  (void)db.CheckSchema();
  EXPECT_EQ(db.schema_analyses_run(), runs);
  EXPECT_GE(db.schema_analyses_skipped(), 2u);
}

// ---- Store index repair (fsck satellite) ----

TEST(RepairTest, RepairIndexesClearsIndexCorruption) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kPlateSchema).ok());
  ASSERT_TRUE(db.CreateClass("Thick", "Plate").ok());
  Surrogate plate = db.CreateObject("Plate", "Thick").value();
  ASSERT_TRUE(db.Set(plate, "Thickness", Value::Int(2)).ok());
  ASSERT_TRUE(db.store().AuditIndexes().empty());
  // Point the object at a class the index has never heard of.
  db.store().GetMutable(plate)->set_class_name("NoSuchClass");
  EXPECT_FALSE(db.store().AuditIndexes().empty());
  EXPECT_TRUE(db.CheckStore().Has("CAD106"));
  db.store().RepairIndexes();
  EXPECT_TRUE(db.store().AuditIndexes().empty());
  EXPECT_FALSE(db.CheckStore().Has("CAD106"));
}

TEST(RepairTest, ShellCheckStoreRepair) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kPlateSchema).ok());
  Surrogate plate = db.CreateObject("Plate").value();
  db.store().GetMutable(plate)->set_class_name("Phantom");
  shell::Dispatcher sh(&db);
  std::ostringstream broken;
  ASSERT_TRUE(sh.ExecuteLine("check store", broken));
  EXPECT_NE(broken.str().find("CAD106"), std::string::npos) << broken.str();
  std::ostringstream repaired;
  ASSERT_TRUE(sh.ExecuteLine("check store --repair", repaired));
  EXPECT_NE(repaired.str().find("indexes rebuilt"), std::string::npos)
      << repaired.str();
  EXPECT_EQ(repaired.str().find("CAD106"), std::string::npos)
      << repaired.str();
  std::ostringstream bad;
  ASSERT_TRUE(sh.ExecuteLine("check schema --repair", bad));
  EXPECT_NE(bad.str().find("error"), std::string::npos) << bad.str();
}

// ---- Dump line numbers (bugfix satellite) ----

TEST(DumpDiagnosticsTest, LoadErrorsNameTheDumpLine) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kPlateSchema).ok());
  Surrogate plate = db.CreateObject("Plate").value();
  ASSERT_TRUE(db.Set(plate, "Thickness", Value::Int(3)).ok());
  std::string dump = persist::Dumper::Dump(db).value();
  // Insert a malformed line just before the trailing "end" marker (lines
  // after it are ignored by design); the error must carry its line number.
  size_t lines = static_cast<size_t>(
      std::count(dump.begin(), dump.end(), '\n'));
  ASSERT_TRUE(dump.size() >= 4 &&
              dump.compare(dump.size() - 4, 4, "end\n") == 0);
  std::string tampered =
      dump.substr(0, dump.size() - 4) + "?!bogus directive\nend\n";
  Database fresh;
  Status s = persist::Dumper::Load(tampered, &fresh);
  ASSERT_FALSE(s.ok());
  // The bogus line took the old "end" line's slot: the dump's last line.
  EXPECT_NE(s.ToString().find("dump line " + std::to_string(lines)),
            std::string::npos)
      << s.ToString();
}

// ---- Shell durability commands ----

TEST(ShellWalTest, WalStatusAndCheckpointCommands) {
  std::string dir = TestDir("shell_wal");
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
  shell::Dispatcher sh((*db).get());
  std::ostringstream status;
  ASSERT_TRUE(sh.ExecuteLine("wal status", status));
  // ToString's policy and lsn lines are the only ones: each prints once.
  const std::string text = status.str();
  const size_t policy = text.find("sync policy:");
  ASSERT_NE(policy, std::string::npos) << text;
  EXPECT_EQ(text.find("sync policy:", policy + 1), std::string::npos) << text;
  const size_t lsn = text.find("last lsn:");
  ASSERT_NE(lsn, std::string::npos) << text;
  EXPECT_EQ(text.find("last lsn:", lsn + 1), std::string::npos) << text;
  EXPECT_NE(status.str().find("recovery:"), std::string::npos)
      << status.str();
  std::ostringstream ckpt;
  ASSERT_TRUE(sh.ExecuteLine("checkpoint", ckpt));
  EXPECT_NE(ckpt.str().find("ok"), std::string::npos) << ckpt.str();
  EXPECT_EQ(sh.error_count(), 0u);
}

TEST(ShellWalTest, WalStatusJsonSharesTheRenderer) {
  std::string dir = TestDir("shell_wal_json");
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
  shell::Dispatcher sh((*db).get());
  std::ostringstream out;
  ASSERT_TRUE(sh.ExecuteLine("wal status --format=json", out));
  EXPECT_EQ(sh.error_count(), 0u) << out.str();
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{') << json;
  EXPECT_NE(json.find("\"log\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sync_policy\":"), std::string::npos);
  EXPECT_NE(json.find("\"recovery\":{"), std::string::npos);
  EXPECT_NE(json.find("\"last_lsn\":"), std::string::npos);

  std::ostringstream bad;
  ASSERT_TRUE(sh.ExecuteLine("wal status --format=xml", bad));
  EXPECT_EQ(sh.error_count(), 1u);
}

TEST(ShellWalTest, WalStatusFailsOnNonDurableDatabase) {
  Database db;
  shell::Dispatcher sh(&db);
  std::ostringstream out;
  ASSERT_TRUE(sh.ExecuteLine("wal status", out));
  EXPECT_EQ(sh.error_count(), 1u);
  EXPECT_NE(out.str().find("not durable"), std::string::npos) << out.str();
}

// ---- AtomicWriteFile / temp-file hygiene (bugfix satellites) ----

/// WritableFile whose Append always fails — the disk filling up right after
/// AtomicWriteFile created its temp file.
class FailingAppendFile : public WritableFile {
 public:
  explicit FailingAppendFile(std::unique_ptr<WritableFile> base)
      : base_(std::move(base)) {}
  Status Append(const std::string&) override {
    return Unavailable("injected append failure");
  }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
};

std::vector<std::string> TmpFilesIn(const std::string& dir) {
  std::vector<std::string> tmps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") {
      tmps.push_back(entry.path().filename().string());
    }
  }
  return tmps;
}

TEST(AtomicWriteFileTest, FailedWriteUnlinksItsTempFile) {
  std::string dir = TestDir("atomic_unlink");
  std::string target = (fs::path(dir) / "checkpoint.db").string();
  FileFactory failing =
      [](const std::string& path) -> Result<std::unique_ptr<WritableFile>> {
    CADDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                           OpenWritableFile(path));
    return std::unique_ptr<WritableFile>(
        new FailingAppendFile(std::move(base)));
  };
  Status written = AtomicWriteFile(target, "payload", failing);
  EXPECT_FALSE(written.ok());
  // The temp file was created (the factory opened it) but must not linger.
  EXPECT_TRUE(TmpFilesIn(dir).empty());
  EXPECT_FALSE(fs::exists(target));
}

TEST(AtomicWriteFileTest, RemoveStaleTempFilesCollectsOnlyTmpDebris) {
  std::string dir = TestDir("atomic_gc");
  // Debris of an AtomicWriteFile cut down between create and rename.
  std::ofstream((fs::path(dir) / "checkpoint.db.172.tmp").string())
      << "half a checkpoint";
  std::ofstream((fs::path(dir) / "orphan.tmp").string()) << "x";
  std::ofstream((fs::path(dir) / "wal-01.log").string()) << "keep me";
  Result<size_t> removed = RemoveStaleTempFiles(dir);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 2u);
  EXPECT_TRUE(TmpFilesIn(dir).empty());
  EXPECT_TRUE(fs::exists(fs::path(dir) / "wal-01.log"));
  // A directory that does not exist yet (first Open of a fresh database
  // path) holds no debris and must not fail the sweep.
  Result<size_t> fresh = RemoveStaleTempFiles(dir + "/never-created");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(*fresh, 0u);
}

TEST(AtomicWriteFileTest, DatabaseOpenCollectsStaleTempFiles) {
  std::string dir = TestDir("atomic_open_gc");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(kPlateSchema).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::ofstream((fs::path(dir) / "checkpoint.db.99.tmp").string()) << "torn";
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(TmpFilesIn(dir).empty());
  // Read-only opens promise not to touch the directory — debris survives.
  std::ofstream((fs::path(dir) / "another.tmp").string()) << "torn";
  ASSERT_TRUE((*db)->Close().ok());
  db->reset();
  auto ro = Database::OpenReadOnly(dir);
  ASSERT_TRUE(ro.ok()) << ro.status().ToString();
  EXPECT_EQ(TmpFilesIn(dir).size(), 1u);
}

TEST(ReadFileToStringTest, MissingAndBrokenFilesAreDistinct) {
  std::string dir = TestDir("read_errno");
  Result<std::string> missing =
      ReadFileToString((fs::path(dir) / "nope").string());
  EXPECT_EQ(missing.status().code(), Code::kNotFound);
  // A directory where a file should be is *not* "missing": the replication
  // follower must not mistake a broken primary for an empty one.
  Result<std::string> broken = ReadFileToString(dir);
  EXPECT_FALSE(broken.ok());
  EXPECT_NE(broken.status().code(), Code::kNotFound)
      << broken.status().ToString();
}

}  // namespace
}  // namespace wal
}  // namespace caddb
