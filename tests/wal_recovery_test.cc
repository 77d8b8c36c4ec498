// Crash-recovery matrix: a scripted >=200-operation workload runs against a
// durable database; the resulting log is then torn (through the FailpointFile
// fault-injection wrapper) at every record boundary and in the middle of
// every record, and each torn log is recovered into a fresh directory. Every
// recovery must come back fsck-clean with exactly the state of the last
// durability point covered by the surviving bytes — the oracle recorded
// during the uninterrupted run.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <set>
#include <vector>

#include "core/database.h"
#include "core/paper_schemas.h"
#include "fault/failpoint.h"
#include "persist/dump.h"
#include "versions/selection.h"
#include "wal/checkpoint.h"
#include "wal/log_io.h"
#include "wal/recovery.h"
#include "wal/wal.h"
#include "workload/generator.h"

namespace caddb {
namespace wal {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory under the build tree (never /tmp).
std::string TestDir(const std::string& name) {
  fs::path dir = fs::current_path() / "wal_recovery_tmp" / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

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

/// State the uninterrupted run had reached when its log was `bytes` long.
struct OraclePoint {
  uint64_t bytes = 0;
  std::string dump;
};

/// Applies a deterministic design workload covering every logged operation
/// kind: DDL, classes, objects, subobjects, relationships, bindings,
/// attribute writes, version graphs, generic (re)binding, explicit
/// transactions (committed and aborted), a workspace checkin, unbinds and
/// deletes. Calls `mark` after every durability point — never inside an
/// open transaction.
Status RunScriptedWorkload(Database* db, const std::function<void()>& mark) {
  CADDB_RETURN_IF_ERROR(db->ExecuteDdl(schemas::kGatesBase));
  mark();
  CADDB_RETURN_IF_ERROR(db->ExecuteDdl(schemas::kGatesInterfaces));
  mark();
  CADDB_RETURN_IF_ERROR(db->CreateClass("Library", "GateInterface"));
  mark();

  // The interface library: 12 x (abstract interface + 3 pins + concrete
  // interface bound to it).
  std::vector<Surrogate> ifaces;
  for (int i = 0; i < 12; ++i) {
    CADDB_ASSIGN_OR_RETURN(Surrogate abs,
                           db->CreateObject("GateInterface_I"));
    mark();
    for (int p = 0; p < 3; ++p) {
      CADDB_ASSIGN_OR_RETURN(Surrogate pin, db->CreateSubobject(abs, "Pins"));
      mark();
      CADDB_RETURN_IF_ERROR(
          db->Set(pin, "InOut", Value::Enum(p == 0 ? "OUT" : "IN")));
      mark();
      CADDB_RETURN_IF_ERROR(db->Set(pin, "PinLocation", Value::Point(i, p)));
      mark();
    }
    CADDB_ASSIGN_OR_RETURN(
        Surrogate iface,
        db->CreateObject("GateInterface", i % 2 == 0 ? "Library" : ""));
    mark();
    CADDB_ASSIGN_OR_RETURN(Surrogate binding,
                           db->Bind(iface, abs, "AllOf_GateInterface_I"));
    (void)binding;
    mark();
    CADDB_RETURN_IF_ERROR(db->Set(iface, "Length", Value::Int(10 + i)));
    mark();
    CADDB_RETURN_IF_ERROR(db->Set(iface, "Width", Value::Int(6 + i % 3)));
    mark();
    ifaces.push_back(iface);
  }

  // Composite implementations: slots bound to library interfaces plus a
  // wire through the inheritance-resolved pin views.
  std::vector<Surrogate> impls;
  for (int c = 0; c < 4; ++c) {
    CADDB_ASSIGN_OR_RETURN(Surrogate impl,
                           db->CreateObject("GateImplementation"));
    mark();
    CADDB_ASSIGN_OR_RETURN(
        Surrogate bound, db->Bind(impl, ifaces[c], "AllOf_GateInterface"));
    (void)bound;
    mark();
    std::vector<Surrogate> slots;
    for (int s = 0; s < 2; ++s) {
      CADDB_ASSIGN_OR_RETURN(Surrogate slot,
                             db->CreateSubobject(impl, "SubGates"));
      mark();
      CADDB_ASSIGN_OR_RETURN(
          Surrogate slot_bound,
          db->Bind(slot, ifaces[(c + s + 1) % ifaces.size()],
                   "AllOf_GateInterface"));
      (void)slot_bound;
      mark();
      CADDB_RETURN_IF_ERROR(
          db->Set(slot, "GateLocation", Value::Point(c, s)));
      mark();
      slots.push_back(slot);
    }
    CADDB_ASSIGN_OR_RETURN(std::vector<Surrogate> own_pins,
                           db->Subclass(impl, "Pins"));
    CADDB_ASSIGN_OR_RETURN(std::vector<Surrogate> sub_pins,
                           db->Subclass(slots[0], "Pins"));
    if (own_pins.empty() || sub_pins.empty()) {
      return InternalError("workload: expected inherited pins");
    }
    CADDB_ASSIGN_OR_RETURN(
        Surrogate wire,
        db->CreateSubrel(impl, "Wires", {{"Pin1", {own_pins[0]}},
                                         {"Pin2", {sub_pins[0]}}}));
    (void)wire;
    mark();
    impls.push_back(impl);
  }

  // A version graph over the interfaces, with a merge.
  CADDB_RETURN_IF_ERROR(
      db->versions().CreateDesignObject("alu", "GateInterface"));
  mark();
  CADDB_RETURN_IF_ERROR(db->versions().AddVersion("alu", ifaces[0], {}));
  mark();
  CADDB_RETURN_IF_ERROR(
      db->versions().AddVersion("alu", ifaces[1], {ifaces[0]}));
  mark();
  CADDB_RETURN_IF_ERROR(
      db->versions().AddVersion("alu", ifaces[2], {ifaces[0], ifaces[1]}));
  mark();
  CADDB_RETURN_IF_ERROR(
      db->versions().SetState("alu", ifaces[1], VersionState::kReleased));
  mark();
  CADDB_RETURN_IF_ERROR(db->versions().SetDefaultVersion("alu", ifaces[1]));
  mark();

  // Deferred version selection, resolved twice so the second resolution
  // exercises the unbind+bind+mark rebinding group.
  CADDB_ASSIGN_OR_RETURN(Surrogate generic,
                         db->CreateObject("GateImplementation"));
  mark();
  CADDB_ASSIGN_OR_RETURN(
      uint64_t binding_id,
      db->versions().BindGeneric(generic, "alu", "AllOf_GateInterface"));
  mark();
  DefaultVersionPolicy policy;
  CADDB_ASSIGN_OR_RETURN(Surrogate picked,
                         db->versions().ResolveGeneric(binding_id, policy));
  (void)picked;
  mark();
  CADDB_RETURN_IF_ERROR(db->versions().SetDefaultVersion("alu", ifaces[2]));
  mark();
  CADDB_ASSIGN_OR_RETURN(Surrogate repicked,
                         db->versions().ResolveGeneric(binding_id, policy));
  (void)repicked;
  mark();

  // Explicit transactions: committed, aborted, committed.
  {
    CADDB_ASSIGN_OR_RETURN(TxnId txn, db->transactions().Begin("alice"));
    CADDB_RETURN_IF_ERROR(
        db->transactions().Write(txn, ifaces[3], "Length", Value::Int(400)));
    CADDB_RETURN_IF_ERROR(
        db->transactions().Write(txn, ifaces[3], "Width", Value::Int(40)));
    CADDB_RETURN_IF_ERROR(db->transactions().Commit(txn));
    mark();
  }
  {
    CADDB_ASSIGN_OR_RETURN(TxnId txn, db->transactions().Begin("bob"));
    CADDB_RETURN_IF_ERROR(
        db->transactions().Write(txn, ifaces[4], "Length", Value::Int(999)));
    CADDB_RETURN_IF_ERROR(db->transactions().Abort(txn));
    mark();
  }
  {
    CADDB_ASSIGN_OR_RETURN(TxnId txn, db->transactions().Begin("carol"));
    CADDB_RETURN_IF_ERROR(
        db->transactions().Write(txn, ifaces[5], "Length", Value::Int(77)));
    CADDB_RETURN_IF_ERROR(
        db->transactions().Write(txn, ifaces[6], "Length", Value::Int(78)));
    CADDB_RETURN_IF_ERROR(
        db->transactions().Write(txn, ifaces[7], "Length", Value::Int(79)));
    CADDB_RETURN_IF_ERROR(db->transactions().Commit(txn));
    mark();
  }

  // A workspace checkin (logged as one bracketed group).
  {
    CADDB_ASSIGN_OR_RETURN(WorkspaceId ws, db->workspaces().Create("dave"));
    CADDB_RETURN_IF_ERROR(db->workspaces().Checkout(ws, ifaces[8]));
    CADDB_RETURN_IF_ERROR(
        db->workspaces().Set(ws, ifaces[8], "Length", Value::Int(123)));
    CADDB_RETURN_IF_ERROR(
        db->workspaces().Set(ws, ifaces[8], "Width", Value::Int(12)));
    CADDB_RETURN_IF_ERROR(db->workspaces().Checkin(ws));
    mark();
  }

  // Unbind / rebind a dependency-free implementation, and deletes.
  CADDB_ASSIGN_OR_RETURN(Surrogate temp_impl,
                         db->CreateObject("GateImplementation"));
  mark();
  CADDB_ASSIGN_OR_RETURN(
      Surrogate temp_bound,
      db->Bind(temp_impl, ifaces[9], "AllOf_GateInterface"));
  (void)temp_bound;
  mark();
  CADDB_RETURN_IF_ERROR(db->Unbind(temp_impl));
  mark();
  CADDB_ASSIGN_OR_RETURN(
      Surrogate rebound,
      db->Bind(temp_impl, ifaces[10], "AllOf_GateInterface"));
  (void)rebound;
  mark();
  CADDB_ASSIGN_OR_RETURN(Surrogate spare1,
                         db->CreateObject("GateInterface_I"));
  mark();
  CADDB_ASSIGN_OR_RETURN(Surrogate spare2,
                         db->CreateObject("GateInterface_I"));
  mark();
  CADDB_RETURN_IF_ERROR(db->Delete(spare1));
  mark();
  CADDB_RETURN_IF_ERROR(db->Delete(spare2));
  mark();
  return OkStatus();
}

/// Writes `bytes` torn at `cut` into `crash_dir`'s segment file through the
/// FailpointFile wrapper, seeding the directory with the live run's (intact)
/// checkpoint first.
void BuildCrashDir(const std::string& crash_dir,
                   const CheckpointFileInfo& checkpoint,
                   const std::string& segment_name, const std::string& bytes,
                   uint64_t cut) {
  fs::copy_file(checkpoint.path,
                fs::path(crash_dir) / fs::path(checkpoint.path).filename());
  auto base =
      OpenWritableFile((fs::path(crash_dir) / segment_name).string());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  FailpointFile torn(std::move(*base), cut);
  ASSERT_TRUE(torn.Append(bytes).ok());
  ASSERT_TRUE(torn.Close().ok());
  EXPECT_EQ(torn.triggered(), cut < bytes.size());
}

TEST(RecoveryMatrixTest, CrashAtEveryBoundaryAndMidRecordMatchesOracle) {
  const std::string dir = TestDir("matrix_live");
  std::vector<OraclePoint> oracles;
  std::string segment_path;
  {
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kNone;  // tearing is done by hand below
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    std::vector<SegmentFileInfo> segments = ListSegments(dir);
    ASSERT_EQ(segments.size(), 1u);
    segment_path = segments[0].path;
    auto mark = [&] {
      oracles.push_back(
          {static_cast<uint64_t>(fs::file_size(segment_path)),
           CanonicalDump(**db)});
    };
    mark();  // the empty database, before any logged operation
    Status workload = RunScriptedWorkload((*db).get(), mark);
    ASSERT_TRUE(workload.ok()) << workload.ToString();
    ASSERT_GE(oracles.size(), 200u) << "scripted workload shrank below the "
                                       "acceptance floor";
    ASSERT_TRUE((*db)->Close().ok());
  }

  Result<std::string> bytes = ReadFileToString(segment_path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  SegmentContents contents = DecodeFrames(*bytes);
  ASSERT_TRUE(contents.tail_error.empty()) << contents.tail_error;
  ASSERT_GE(contents.frames.size(), 200u);
  std::vector<CheckpointFileInfo> checkpoints = ListCheckpoints(dir);
  ASSERT_EQ(checkpoints.size(), 1u);
  const std::string segment_name =
      fs::path(segment_path).filename().string();

  // Cut set: every frame boundary plus the middle of every frame.
  std::set<uint64_t> boundaries{0};
  std::vector<uint64_t> cuts{0};
  uint64_t prev_end = 0;
  for (const Frame& frame : contents.frames) {
    boundaries.insert(frame.end_offset);
    cuts.push_back(prev_end + (frame.end_offset - prev_end) / 2);
    cuts.push_back(frame.end_offset);
    prev_end = frame.end_offset;
  }

  for (uint64_t cut : cuts) {
    const std::string crash_dir = TestDir("matrix_crash");
    BuildCrashDir(crash_dir, checkpoints[0], segment_name, *bytes, cut);
    auto recovered = Database::Open(crash_dir);
    ASSERT_TRUE(recovered.ok())
        << "cut at " << cut << ": " << recovered.status().ToString();
    const RecoveryReport& report = (*recovered)->recovery_report();
    EXPECT_TRUE(report.fsck_ran);
    EXPECT_EQ(report.tail_error.empty(), boundaries.count(cut) > 0)
        << "cut at " << cut << "\n" << report.ToString();
    // Exact oracle: the last durability point at or before the cut.
    const OraclePoint* expected = &oracles.front();
    for (const OraclePoint& o : oracles) {
      if (o.bytes > cut) break;
      expected = &o;
    }
    EXPECT_EQ(CanonicalDump(**recovered), expected->dump)
        << "cut at " << cut << "\n" << report.ToString();
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

TEST(RecoveryMatrixTest, AcknowledgedButLostWritesRecoverToADurablePrefix) {
  // First pass: the same workload against real files, to learn the byte
  // positions of the durability points.
  const std::string oracle_dir = TestDir("failpoint_oracle");
  std::vector<OraclePoint> oracles;
  uint64_t total_bytes = 0;
  {
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kNone;
    auto db = Database::Open(oracle_dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    std::string segment_path = ListSegments(oracle_dir)[0].path;
    auto mark = [&] {
      oracles.push_back(
          {static_cast<uint64_t>(fs::file_size(segment_path)),
           CanonicalDump(**db)});
    };
    mark();
    ASSERT_TRUE(RunScriptedWorkload((*db).get(), mark).ok());
    total_bytes = static_cast<uint64_t>(fs::file_size(segment_path));
    ASSERT_TRUE((*db)->Close().ok());
  }

  // Second pass: the wal's live segment is cut by the `wal.file.cut`
  // failpoint — the kernel "acknowledges" every byte past the budget and
  // drops it. The workload keeps succeeding; recovery must land on the
  // durability point covered by the bytes that actually survived. The
  // record stream is deterministic, so the oracle byte offsets carry over.
  for (uint64_t budget : {uint64_t{0}, uint64_t{97}, total_bytes / 3,
                          total_bytes / 2, total_bytes + 1000}) {
    const std::string dir = TestDir("failpoint_live");
    {
      // Disarms on every exit, so the cut never reaches a later case.
      struct DisarmOnExit {
        ~DisarmOnExit() { fault::FailpointRegistry::Global().DisarmAll(); }
      } disarm;
      // Hit 1 is the segment Wal::Open creates; hit 2 is the live segment
      // Open's checkpoint rotates to, which the workload writes.
      ASSERT_TRUE(fault::FailpointRegistry::Global()
                      .ArmFromString("wal.file.cut cut=" +
                                     std::to_string(budget) +
                                     " --skip=1 --times=1")
                      .ok());
      DurabilityOptions options;
      options.wal.sync = SyncPolicy::kAlways;  // sync lies after the trigger
      auto db = Database::Open(dir, options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      Status workload = RunScriptedWorkload((*db).get(), [] {});
      ASSERT_TRUE(workload.ok()) << workload.ToString();
    }  // crash: destructor close, the dropped bytes stay dropped
    auto recovered = Database::Open(dir);
    ASSERT_TRUE(recovered.ok())
        << "budget " << budget << ": " << recovered.status().ToString();
    const OraclePoint* expected = &oracles.front();
    for (const OraclePoint& o : oracles) {
      if (o.bytes > budget) break;
      expected = &o;
    }
    EXPECT_EQ(CanonicalDump(**recovered), expected->dump)
        << "budget " << budget << "\n"
        << (*recovered)->recovery_report().ToString();
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

TEST(RecoveryPropertyTest, GeneratorTraceRecoversAtEveryBoundary) {
  // Property: for a random workload::Generator trace, recovery of the full
  // log reproduces the uninterrupted run's dump exactly, and recovery at
  // every record boundary yields an fsck-clean committed prefix whose
  // object population only ever grows along the log.
  const std::string dir = TestDir("generator_live");
  std::string live_dump;
  std::string segment_path;
  {
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kNone;
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->ExecuteDdl(schemas::kGatesBase).ok());
    ASSERT_TRUE((*db)->ExecuteDdl(schemas::kGatesInterfaces).ok());
    workload::NetlistParams params;
    params.seed = 20260807;
    params.library_size = 4;
    params.pins_per_interface = 2;
    params.composites = 4;
    params.components_per_composite = 2;
    params.depth = 2;
    auto netlist = workload::GenerateNetlist((*db).get(), params);
    ASSERT_TRUE(netlist.ok()) << netlist.status().ToString();
    live_dump = CanonicalDump(**db);
    segment_path = ListSegments(dir)[0].path;
    ASSERT_TRUE((*db)->Close().ok());
  }

  Result<std::string> bytes = ReadFileToString(segment_path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  SegmentContents contents = DecodeFrames(*bytes);
  ASSERT_TRUE(contents.tail_error.empty()) << contents.tail_error;
  std::vector<CheckpointFileInfo> checkpoints = ListCheckpoints(dir);
  ASSERT_EQ(checkpoints.size(), 1u);
  const std::string segment_name =
      fs::path(segment_path).filename().string();

  size_t prev_objects = 0;
  std::string half_dump;
  const size_t half = contents.frames.size() / 2;
  for (size_t i = 0; i <= contents.frames.size(); ++i) {
    uint64_t cut = i == 0 ? 0 : contents.frames[i - 1].end_offset;
    const std::string crash_dir = TestDir("generator_crash");
    BuildCrashDir(crash_dir, checkpoints[0], segment_name, *bytes, cut);
    auto recovered = Database::Open(crash_dir);
    ASSERT_TRUE(recovered.ok())
        << "cut at " << cut << ": " << recovered.status().ToString();
    EXPECT_TRUE((*recovered)->recovery_report().tail_error.empty());
    size_t objects = (*recovered)->store().size();
    EXPECT_GE(objects, prev_objects) << "cut at " << cut;
    prev_objects = objects;
    if (i == half) half_dump = CanonicalDump(**recovered);
    if (i == contents.frames.size()) {
      EXPECT_EQ(CanonicalDump(**recovered), live_dump)
          << "full-log recovery diverged from the uninterrupted run";
    }
    ASSERT_TRUE((*recovered)->Close().ok());
  }

  // Determinism: recovering the same torn prefix twice gives the same state.
  const std::string again_dir = TestDir("generator_crash_again");
  BuildCrashDir(again_dir, checkpoints[0], segment_name, *bytes,
                contents.frames[half - 1].end_offset);
  auto again = Database::Open(again_dir);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(CanonicalDump(**again), half_dump);
}

void TouchEmptyFile(const std::string& path) {
  auto file = OpenWritableFile(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE((*file)->Close().ok());
}

/// Copies a whole durability directory so each mutation test can corrupt
/// its own copy (Database::Open rewrites the directory it recovers).
std::string CloneDir(const std::string& src, const std::string& name) {
  const std::string dst = TestDir(name);
  for (const fs::directory_entry& entry : fs::directory_iterator(src)) {
    fs::copy_file(entry.path(), fs::path(dst) / entry.path().filename());
  }
  return dst;
}

/// A multi-segment durability directory (closed, not reopened), with the
/// live run's dump at the newest checkpoint and at the end. Segments close
/// only at checkpoints, and a checkpoint deletes every segment its snapshot
/// covers, so the chain comes from a transaction held open across several
/// checkpoints: its begin record pins every segment from its own onward
/// until it commits, after the last checkpoint.
struct RotatedLog {
  std::string dir;
  std::string checkpoint_dump;
  std::string live_dump;
  uint64_t last_lsn = 0;
};

RotatedLog BuildRotatedLog(const std::string& name) {
  RotatedLog log;
  log.dir = TestDir(name);
  DurabilityOptions options;
  options.wal.sync = SyncPolicy::kNone;
  auto db = Database::Open(log.dir, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  // The spanning transaction writes an object the workload never touches,
  // rewriting its committed value: whether that write is rolled back or
  // committed, the state is the same, so a dump taken at a checkpoint is
  // also what recovery from that checkpoint must rebuild.
  EXPECT_TRUE(
      (*db)->ExecuteDdl("obj-type Anchor = attributes: N: integer; end Anchor;")
          .ok());
  const Surrogate anchor = (*db)->CreateObject("Anchor").value();
  EXPECT_TRUE((*db)->Set(anchor, "N", Value::Int(1)).ok());
  const TxnId spanning = (*db)->transactions().Begin("eve").value();
  EXPECT_TRUE(
      (*db)->transactions().Write(spanning, anchor, "N", Value::Int(1)).ok());
  size_t marks = 0;
  Status workload = RunScriptedWorkload((*db).get(), [&] {
    if (++marks % 50 == 0 && marks <= 150) {
      EXPECT_TRUE((*db)->Checkpoint().ok());
      log.checkpoint_dump = CanonicalDump(**db);
    }
  });
  EXPECT_TRUE(workload.ok()) << workload.ToString();
  EXPECT_TRUE((*db)->transactions().Commit(spanning).ok());
  log.live_dump = CanonicalDump(**db);
  log.last_lsn = (*db)->wal()->last_lsn();
  EXPECT_TRUE((*db)->Close().ok());
  EXPECT_GT(ListSegments(log.dir).size(), 2u)
      << "the spanning transaction no longer pins segments";
  return log;
}

TEST(RecoveryRotationCrashTest, EmptyFinalSegmentFromCrashedRotationIsClean) {
  // Crash between "create the next segment file" and "append to it": the
  // chain ends in a zero-length segment. That is a healthy tail, not a torn
  // log — recovery must come back with the full state and no tail error.
  RotatedLog log = BuildRotatedLog("rotation_empty_final");
  TouchEmptyFile(
      (fs::path(log.dir) / SegmentFileName(log.last_lsn + 1)).string());
  auto recovered = Database::Open(log.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery_report().tail_error.empty())
      << (*recovered)->recovery_report().ToString();
  EXPECT_EQ((*recovered)->recovery_report().last_lsn, log.last_lsn);
  EXPECT_EQ(CanonicalDump(**recovered), log.live_dump);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST(RecoveryRotationCrashTest, ZeroLengthOnlySegmentRecoversToCheckpoint) {
  // The degenerate directory a crash right after Open can leave: checkpoint
  // plus one zero-length segment. Recovery is the checkpoint state.
  const std::string live_dir = TestDir("zero_only_live");
  std::string checkpoint_dump;
  uint64_t checkpoint_lsn = 0;
  {
    auto db = Database::Open(live_dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    checkpoint_dump = CanonicalDump(**db);
    ASSERT_TRUE((*db)->Close().ok());
    checkpoint_lsn = ListCheckpoints(live_dir).back().lsn;
  }
  const std::string crash_dir = TestDir("zero_only_crash");
  fs::copy_file(ListCheckpoints(live_dir).back().path,
                fs::path(crash_dir) /
                    fs::path(ListCheckpoints(live_dir).back().path).filename());
  TouchEmptyFile(
      (fs::path(crash_dir) / SegmentFileName(checkpoint_lsn + 1)).string());
  auto recovered = Database::Open(crash_dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery_report().tail_error.empty());
  EXPECT_EQ(CanonicalDump(**recovered), checkpoint_dump);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST(RecoveryRotationCrashTest, TornTailPlusEmptyNextSegmentRecoversPrefix) {
  // Crash during rotation after a torn append: the (now second-to-last)
  // segment has a torn tail and the fresh segment is empty. The torn
  // segment is the effective tail — recovery lands on its valid prefix.
  const std::string live_dir = TestDir("torn_plus_empty_live");
  std::vector<OraclePoint> oracles;
  std::string segment_path;
  {
    DurabilityOptions options;
    options.wal.sync = SyncPolicy::kNone;
    auto db = Database::Open(live_dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    segment_path = ListSegments(live_dir)[0].path;
    auto mark = [&] {
      oracles.push_back({static_cast<uint64_t>(fs::file_size(segment_path)),
                         CanonicalDump(**db)});
    };
    mark();
    ASSERT_TRUE(RunScriptedWorkload((*db).get(), mark).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  Result<std::string> bytes = ReadFileToString(segment_path);
  ASSERT_TRUE(bytes.ok());
  SegmentContents contents = DecodeFrames(*bytes);
  ASSERT_TRUE(contents.tail_error.empty());
  std::vector<CheckpointFileInfo> checkpoints = ListCheckpoints(live_dir);
  ASSERT_EQ(checkpoints.size(), 1u);
  const std::string segment_name = fs::path(segment_path).filename().string();

  const size_t mid = contents.frames.size() / 2;
  const uint64_t cut = contents.frames[mid].end_offset - 3;  // mid-frame
  const std::string crash_dir = TestDir("torn_plus_empty_crash");
  BuildCrashDir(crash_dir, checkpoints[0], segment_name, *bytes, cut);
  TouchEmptyFile(
      (fs::path(crash_dir) / SegmentFileName(contents.frames[mid].lsn + 1))
          .string());

  auto recovered = Database::Open(crash_dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE((*recovered)->recovery_report().tail_error.empty());
  const OraclePoint* expected = &oracles.front();
  for (const OraclePoint& o : oracles) {
    if (o.bytes > cut) break;
    expected = &o;
  }
  EXPECT_EQ(CanonicalDump(**recovered), expected->dump);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST(RecoveryRotationCrashTest, TornNonFinalSegmentWithLaterRecordsIsFatal) {
  // A torn segment *followed by real records* is not a crash artifact —
  // committed data between them is gone. Recovery must refuse, not
  // silently replay around the hole.
  RotatedLog log = BuildRotatedLog("rotation_torn_midchain");
  std::vector<SegmentFileInfo> segments = ListSegments(log.dir);
  const std::string crash_dir = CloneDir(log.dir, "rotation_torn_crash");
  const std::string victim =
      (fs::path(crash_dir) / fs::path(segments[0].path).filename()).string();
  Result<std::string> bytes = ReadFileToString(victim);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(AtomicWriteFile(victim, bytes->substr(0, bytes->size() - 5))
                  .ok());
  auto recovered = Database::Open(crash_dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("torn in the middle"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST(RecoveryRotationCrashTest, MissingMiddleSegmentIsFatal) {
  RotatedLog log = BuildRotatedLog("rotation_gap_midchain");
  std::vector<SegmentFileInfo> segments = ListSegments(log.dir);
  ASSERT_GT(segments.size(), 2u);
  const std::string crash_dir = CloneDir(log.dir, "rotation_gap_crash");
  fs::remove(fs::path(crash_dir) / fs::path(segments[1].path).filename());
  auto recovered = Database::Open(crash_dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("wal gap between"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST(RecoveryRotationCrashTest, MissingOldestSegmentIsFatal) {
  // The newest checkpoint (lsn != 0) was taken while the spanning
  // transaction was open, so replay must start at its begin record, in the
  // oldest segment. Losing that segment — the one that connects chain to
  // checkpoint — must fail.
  RotatedLog log = BuildRotatedLog("rotation_gap_oldest");
  ASSERT_NE(ListCheckpoints(log.dir).back().lsn, 0u);
  std::vector<SegmentFileInfo> segments = ListSegments(log.dir);
  const std::string crash_dir = CloneDir(log.dir, "rotation_gap_oldest_crash");
  fs::remove(fs::path(crash_dir) / fs::path(segments[0].path).filename());
  auto recovered = Database::Open(crash_dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("wal gap: replay needs lsn"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST(RecoveryRotationCrashTest, RotatedChainRecoversAtEverySegmentCount) {
  // Every segment but the last holds only records the newest checkpoint
  // covers; the spanning transaction commits in the last. So each strict
  // prefix of the chain recovers to the newest checkpoint's state, the
  // whole chain to the live state, and every prefix is fsck-clean.
  RotatedLog log = BuildRotatedLog("rotation_prefixes");
  ASSERT_NE(log.checkpoint_dump, log.live_dump);
  std::vector<SegmentFileInfo> segments = ListSegments(log.dir);
  for (size_t keep = 1; keep <= segments.size(); ++keep) {
    const std::string crash_dir =
        CloneDir(log.dir, "rotation_prefix_crash");
    for (size_t i = keep; i < segments.size(); ++i) {
      fs::remove(fs::path(crash_dir) / fs::path(segments[i].path).filename());
    }
    auto recovered = Database::Open(crash_dir);
    ASSERT_TRUE(recovered.ok())
        << "keep=" << keep << ": " << recovered.status().ToString();
    EXPECT_TRUE((*recovered)->recovery_report().fsck_ran);
    EXPECT_EQ(CanonicalDump(**recovered), keep == segments.size()
                                              ? log.live_dump
                                              : log.checkpoint_dump)
        << "keep=" << keep;
    ASSERT_TRUE((*recovered)->Close().ok());
  }
}

}  // namespace
}  // namespace wal
}  // namespace caddb
