#include "shell/dispatcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <thread>

#include "fault/failpoint.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "persist/dump.h"
#include "replication/follower.h"
#include "replication/shipper.h"
#include "wal/wal.h"

namespace caddb {
namespace shell {
namespace {

/// Runs `script` through a fresh shell; returns its full output.
std::string RunScript(const std::string& script, size_t* errors = nullptr,
                      Database* external_db = nullptr) {
  Database local_db;
  Database* db = external_db != nullptr ? external_db : &local_db;
  Dispatcher shell(db);
  std::istringstream in(script);
  std::ostringstream out;
  shell.Run(in, out);
  if (errors != nullptr) *errors = shell.error_count();
  return out.str();
}

constexpr const char* kBoxSchema = R"(schema <<<
obj-type Box =
  attributes:
    W, H: integer;
  constraints:
    W > 0 and H > 0;
end Box;
>>>
)";

TEST(ShellTest, SchemaBlockAndCreate) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "create Box\n"
                                  "set @1 W i:3\n"
                                  "set @1 H i:4\n"
                                  "check @1\n"
                                  "get @1 W\n",
                              &errors);
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("@1\n"), std::string::npos);
  EXPECT_NE(out.find("ok\n"), std::string::npos);
  EXPECT_NE(out.find("3\n"), std::string::npos);
}

TEST(ShellTest, ErrorsAreReportedInlineAndCounted) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "create Box\n"
                                  "check @1\n"      // W/H unset -> violation
                                  "set @1 W e:NO\n"  // domain error
                                  "get @99 W\n"      // unknown surrogate
                                  "frobnicate\n",    // unknown command
                              &errors);
  EXPECT_EQ(errors, 4u) << out;
  EXPECT_NE(out.find("ConstraintViolation"), std::string::npos);
  EXPECT_NE(out.find("TypeMismatch"), std::string::npos);
  EXPECT_NE(out.find("NotFound"), std::string::npos);
  EXPECT_NE(out.find("unknown command"), std::string::npos);

  // Outside input is validated, not skimmed: a sign, trailing characters,
  // overflow and surplus arguments are each an error, never a reading of
  // some prefix of the line.
  Database db;
  Dispatcher shell(&db);
  std::ostringstream setup;
  for (const char* line : {"schema <<<",
                           "obj-type Box = attributes: W, H: integer; end Box;",
                           ">>>", "create Box", "set @1 W i:3"}) {
    shell.ExecuteLine(line, setup);
  }
  ASSERT_EQ(shell.error_count(), 0u) << setup.str();
  for (const char* line :
       {"get @1x W", "get @1abc W", "get @-1 W", "get @+1 W",
        "get @18446744073709551616 W", "expand @1 2junk", "expand @1 -1",
        "expand @1 2147483648", "trace threshold 5ms", "trace threshold -5",
        "log tail -1", "metrics --watch --window=-5", "get @1 W extra junk",
        "checkpoint now", "select Box where", "delete @1 detach-all",
        "fault disarm --all now", "quit now"}) {
    const size_t before = shell.error_count();
    std::ostringstream probe;
    EXPECT_TRUE(shell.ExecuteLine(line, probe)) << line;
    EXPECT_EQ(shell.error_count(), before + 1) << line << ": " << probe.str();
    EXPECT_EQ(probe.str().rfind("error: ", 0), 0u) << line << ": "
                                                    << probe.str();
  }
  std::ostringstream value;
  shell.ExecuteLine("get @1 W", value);
  EXPECT_EQ(value.str(), "3\n") << "the probes changed nothing";
}

TEST(ShellTest, CommentsAndEchoAndQuit) {
  size_t errors = 0;
  std::string out = RunScript(
      "# a comment\n"
      "echo hello world\n"
      "quit\n"
      "echo never reached\n",
      &errors);
  EXPECT_EQ(errors, 0u);
  EXPECT_NE(out.find("hello world\n"), std::string::npos);
  EXPECT_EQ(out.find("never reached"), std::string::npos);
}

TEST(ShellTest, FullInheritanceWorkflow) {
  size_t errors = 0;
  std::string out = RunScript(
      "schema <<<\n"
      "obj-type Iface = attributes: L: integer; end Iface;\n"
      "inher-rel-type R =\n"
      "  transmitter: object-of-type Iface;\n"
      "  inheritor: object; inheriting: L;\n"
      "end R;\n"
      "obj-type Impl = inheritor-in: R; end Impl;\n"
      ">>>\n"
      "create Iface\n"   // @1
      "create Impl\n"    // @2
      "bind @2 @1 R\n"   // @3
      "set @1 L i:10\n"
      "get @2 L\n"       // 10 through inheritance
      "set @2 L i:9\n"   // inherited -> error
      "pending @2\n"
      "ack @2\n"
      "where-used @1\n"
      "unbind @2\n"
      "get @2 L\n",      // null when unbound
      &errors);
  EXPECT_EQ(errors, 1u) << out;  // exactly the read-only write
  EXPECT_NE(out.find("10\n"), std::string::npos);
  EXPECT_NE(out.find("InheritedReadOnly"), std::string::npos);
  EXPECT_NE(out.find("Item: \"L\""), std::string::npos) << "pending log";
  EXPECT_NE(out.find("(1 users)"), std::string::npos);
  EXPECT_NE(out.find("null\n"), std::string::npos);
}

TEST(ShellTest, SubobjectsRelationshipsAndExpand) {
  size_t errors = 0;
  std::string out = RunScript(
      "schema <<<\n"
      "obj-type Pin = attributes: D: integer; end Pin;\n"
      "rel-type Wire = relates: A, B: object-of-type Pin; end Wire;\n"
      "obj-type Board =\n"
      "  types-of-subclasses: Pins: Pin;\n"
      "  types-of-subrels: Wires: Wire;\n"
      "end Board;\n"
      ">>>\n"
      "create Board\n"       // @1
      "sub @1 Pins\n"        // @2
      "sub @1 Pins\n"        // @3
      "members @1 Pins\n"
      "subrel @1 Wires A=@2 B=@3\n"  // @4
      "rel Wire A=@2 B=@3\n"         // @5
      "expand @1\n"
      "expand-dot @1\n"
      "stats\n"
      "delete @1\n"
      "members @1 Pins\n",  // gone
      &errors);
  EXPECT_EQ(errors, 1u) << out;  // only the final members on deleted @1
  EXPECT_NE(out.find("@2 @3 (2)"), std::string::npos);
  EXPECT_NE(out.find("Board @1"), std::string::npos);
  EXPECT_NE(out.find("[Pins]"), std::string::npos);
  EXPECT_NE(out.find("digraph caddb_expansion"), std::string::npos);
  EXPECT_NE(out.find("bound inheritors: 0"), std::string::npos);
}

TEST(ShellTest, ViolationsSweepAndHolds) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "create Box\n"
                                  "create Box\n"
                                  "set @1 W i:3\n"
                                  "set @1 H i:4\n"
                                  "holds @1 W * H = 12\n"
                                  "violations\n",
                              &errors);
  // @2 has unset W/H: exactly one violating object, and a non-empty
  // violation list counts toward the shell's exit code.
  EXPECT_EQ(errors, 1u) << out;
  EXPECT_NE(out.find("true\n"), std::string::npos);
  EXPECT_NE(out.find("(1 violations)"), std::string::npos);
}

TEST(ShellTest, ViolationsWithCleanPopulationExitsClean) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "create Box\n"
                                  "set @1 W i:3\n"
                                  "set @1 H i:4\n"
                                  "violations\n",
                              &errors);
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("(0 violations)"), std::string::npos) << out;
}

TEST(ShellTest, SelectProjectsTables) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "class Boxes Box\n"
                                  "create Box Boxes\n"
                                  "create Box Boxes\n"
                                  "set @1 W i:3\n"
                                  "set @1 H i:4\n"
                                  "set @2 W i:10\n"
                                  "set @2 H i:20\n"
                                  "select Boxes W H where W > 5\n"
                                  "select Box W\n",
                              &errors);
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("(1 rows)"), std::string::npos) << out;
  EXPECT_NE(out.find("(2 rows)"), std::string::npos) << out;
  EXPECT_NE(out.find("surrogate"), std::string::npos);
  EXPECT_NE(out.find("10"), std::string::npos);
}

TEST(ShellTest, DumpAndLoadThroughFiles) {
  std::string path = ::testing::TempDir() + "/shell_dump.cdb";
  size_t errors = 0;
  RunScript(std::string(kBoxSchema) +
                "create Box\n"
                "set @1 W i:3\n"
                "set @1 H i:4\n"
                "dump " +
                path + "\n",
            &errors);
  ASSERT_EQ(errors, 0u);

  Database restored;
  std::string out =
      RunScript("load " + path + "\nget @1 W\n", &errors, &restored);
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("3\n"), std::string::npos);
}

TEST(ShellTest, PrintSchemaRoundTripsThroughShell) {
  size_t errors = 0;
  std::string printed = RunScript(std::string(kBoxSchema) + "print-schema\n",
                                  &errors);
  ASSERT_EQ(errors, 0u);
  // Feed the printed schema into a fresh shell.
  size_t start = printed.find("obj-type");
  ASSERT_NE(start, std::string::npos);
  std::string schema_text = printed.substr(start);
  std::string out = RunScript("schema <<<\n" + schema_text + ">>>\ncreate Box\n",
                              &errors);
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("@1\n"), std::string::npos);
}

TEST(ShellTest, CheckCommandReportsClean) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) + "check\n", &errors);
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("check: clean\n"), std::string::npos) << out;
}

constexpr const char* kBrokenSchema = R"(schema <<<
obj-type Odd =
  inheritor-in: Missing;
  attributes:
    A: integer;
end Odd;
>>>
)";

TEST(ShellTest, CheckCommandReportsDefectsAndCountsAsError) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBrokenSchema) + "check schema\n",
                              &errors);
  EXPECT_EQ(errors, 1u) << out;
  EXPECT_NE(out.find("CAD004"), std::string::npos) << out;
  EXPECT_NE(out.find("obj-type Odd"), std::string::npos) << out;
}

TEST(ShellTest, CheckCommandJsonFormat) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBrokenSchema) +
                                  "check --format=json\n",
                              &errors);
  EXPECT_EQ(errors, 1u) << out;
  EXPECT_NE(out.find("{\"diagnostics\":["), std::string::npos) << out;
  EXPECT_NE(out.find("\"code\":\"CAD004\""), std::string::npos) << out;
}

TEST(ShellTest, CheckCommandRejectsUnknownArgument) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) + "check bogus-mode\n",
                              &errors);
  EXPECT_EQ(errors, 1u) << out;
}

// ---- check disk (offline verification from a live shell) ----

TEST(ShellTest, CheckDiskOnDurableDatabaseIsCleanInBothFormats) {
  std::string dir = ::testing::TempDir() + "/shell_check_disk";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "create Box\n"
                                  "set @1 W i:3\n"
                                  "set @1 H i:4\n"
                                  "checkpoint\n"
                                  "check disk\n"
                                  "check disk --format=json\n",
                              &errors, db->get());
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("scanned:"), std::string::npos) << out;
  EXPECT_NE(out.find("\"clean\":true"), std::string::npos) << out;
  ASSERT_TRUE((*db)->Close().ok());
}

TEST(ShellTest, CheckDiskNeedsADurableDatabase) {
  size_t errors = 0;
  std::string out = RunScript("check disk\n", &errors);
  EXPECT_EQ(errors, 1u) << out;
  EXPECT_NE(out.find("durable"), std::string::npos) << out;
}

TEST(ShellTest, CheckDiskRefusesLiveFix) {
  std::string dir = ::testing::TempDir() + "/shell_check_disk_fix";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  size_t errors = 0;
  std::string out = RunScript("check disk --fix\n", &errors, db->get());
  EXPECT_EQ(errors, 1u) << out;
  EXPECT_NE(out.find("--check"), std::string::npos) << out;
  ASSERT_TRUE((*db)->Close().ok());
}

TEST(ShellTest, CheckDiskRejectsUnknownArgument) {
  size_t errors = 0;
  std::string out = RunScript("check disk --bogus\n", &errors);
  EXPECT_EQ(errors, 1u) << out;
  EXPECT_NE(out.find("unknown check disk argument"), std::string::npos)
      << out;
}

// ---- Observability commands ----

TEST(ShellObsTest, MetricsCommandInAllThreeFormats) {
  size_t errors = 0;
  const std::string workload = std::string(kBoxSchema) +
                               "create Box\n"
                               "set @1 W i:3\n"
                               "get @1 W\n";
  std::string text = RunScript(workload + "metrics\n", &errors);
  EXPECT_EQ(errors, 0u) << text;
  EXPECT_NE(text.find("caddb_inherit_resolutions_total"), std::string::npos)
      << text;
  EXPECT_NE(text.find("caddb_catalog_schema_cache_misses_total"),
            std::string::npos);

  std::string prom = RunScript(workload + "metrics --format=prom\n", &errors);
  EXPECT_EQ(errors, 0u) << prom;
  std::string error;
  // Strip the trailing shell framing only if any; the command output is the
  // exposition itself.
  EXPECT_TRUE(obs::ValidatePrometheusText(
      prom.substr(prom.find("# ")), &error))
      << error;
  EXPECT_NE(prom.find("# TYPE caddb_inherit_resolutions_total counter"),
            std::string::npos);

  std::string json = RunScript(workload + "metrics --format=json\n", &errors);
  EXPECT_EQ(errors, 0u) << json;
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos) << json;

  RunScript(workload + "metrics --format=xml\n", &errors);
  EXPECT_EQ(errors, 1u);
}

TEST(ShellObsTest, TraceCommandsDriveTheTracer) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "trace\n"
                                  "trace threshold 0\n"
                                  "trace on\n"
                                  "create Box\n"
                                  "set @1 W i:3\n"
                                  "get @1 W\n"
                                  "trace dump\n"
                                  "trace dump --slow-only\n"
                                  "trace off\n"
                                  "trace clear\n"
                                  "trace dump\n",
                              &errors);
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("tracing off"), std::string::npos) << out;
  EXPECT_NE(out.find("inherit.get_attribute"), std::string::npos) << out;
  EXPECT_NE(out.find("attr=W"), std::string::npos) << out;
  EXPECT_NE(out.find(" SLOW"), std::string::npos)
      << "threshold 0 must promote every span";
  EXPECT_NE(out.find("(0 span(s))"), std::string::npos)
      << "clear must empty the ring";

  RunScript("trace bogus\n", &errors);
  EXPECT_EQ(errors, 1u);
  RunScript("trace threshold not-a-number\n", &errors);
  EXPECT_EQ(errors, 1u);
}

TEST(ShellObsTest, TraceDumpJsonGolden) {
  // Pin the JSON element shape: machine consumers key on these fields.
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "trace on\n"
                                  "create Box\n"
                                  "get @1 W\n"
                                  "trace dump --format=json\n",
                              &errors);
  EXPECT_EQ(errors, 0u) << out;  // an unset W prints null, not an error
  const size_t start = out.find('[');
  ASSERT_NE(start, std::string::npos) << out;
  EXPECT_NE(out.find("\"id\":", start), std::string::npos) << out;
  EXPECT_NE(out.find("\"parent\":", start), std::string::npos);
  EXPECT_NE(out.find("\"trace_id\":\"", start), std::string::npos)
      << "trace ids render as 16-hex-digit strings: " << out;
  EXPECT_NE(out.find("\"name\":\"inherit.get_attribute\"", start),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"start_us\":", start), std::string::npos);
  EXPECT_NE(out.find("\"duration_us\":", start), std::string::npos);
  EXPECT_NE(out.find("\"slow\":", start), std::string::npos);
  EXPECT_NE(out.find("\"attributes\":{", start), std::string::npos);
  EXPECT_NE(out.find("\"attr\":\"W\"", start), std::string::npos) << out;

  RunScript("trace dump --format=xml\n", &errors);
  EXPECT_EQ(errors, 1u);
}

TEST(ShellObsTest, LogVerbsTailLevelAndJson) {
  size_t errors = 0;
  // A `fault arm` + a fired failpoint produce a structured event; the log
  // verbs read it back, text and JSON.
  std::string out = RunScript(
      "log\n"
      "log level debug\n"
      "fault arm wal.checkpoint.publish error --times=1\n"
      "checkpoint\n"  // not durable -> fails before the site; that's fine
      "log tail 5\n"
      "log level bogus\n"
      "fault disarm --all\n",
      &errors);
  EXPECT_EQ(errors, 2u) << out;  // checkpoint + bogus level
  EXPECT_NE(out.find("level info"), std::string::npos) << out;

  // The JSON tail round-trips records written through the dispatcher.
  Database db;
  db.observability()->log.Log(obs::LogLevel::kWarn, "test",
                              "hello from the ring");
  std::string json = RunScript("log tail --format=json\n", nullptr, &db);
  EXPECT_NE(json.find("\"level\":\"warn\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"subsystem\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"msg\":\"hello from the ring\""), std::string::npos);

  std::string leveled = RunScript("log level error\nlog\n", nullptr, &db);
  EXPECT_NE(leveled.find("level error"), std::string::npos) << leveled;
}

TEST(ShellObsTest, MetricsWatchReportsDeltas) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "create Box\n"
                                  "metrics --watch --window=60000\n",
                              &errors);
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("window:"), std::string::npos) << out;

  Database db;
  std::string json = RunScript(
      "metrics --watch --window=60000 --format=json\n", nullptr, &db);
  EXPECT_NE(json.find("\"rates\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\":"), std::string::npos) << json;

  RunScript("metrics --watch --window=abc\n", &errors);
  EXPECT_EQ(errors, 1u);
}

TEST(ShellObsTest, StatsJsonEmbedsMetrics) {
  size_t errors = 0;
  std::string out = RunScript(std::string(kBoxSchema) +
                                  "create Box\n"
                                  "stats --format=json\n",
                              &errors);
  EXPECT_EQ(errors, 0u) << out;
  EXPECT_NE(out.find("\"objects\":{\"total\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"per_type\":{\"Box\":1}"), std::string::npos);
  EXPECT_NE(out.find("\"metrics\":{\"counters\":{"), std::string::npos);

  RunScript("stats --format=yaml\n", &errors);
  EXPECT_EQ(errors, 1u);
}

TEST(ShellNetTest, ServerStatusNeedsAnAttachedServer) {
  size_t errors = 0;
  std::string out = RunScript("server status\n", &errors);
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(out.find("no network server is attached"), std::string::npos)
      << out;
  RunScript("server bogus\n", &errors);
  EXPECT_EQ(errors, 1u);
}

TEST(ShellNetTest, ServerStatusReportsListenerQueueAndSessions) {
  Database db;
  auto server = net::Server::Start(&db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = net::Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::string output;
  bool command_error = false;
  ASSERT_TRUE((*client)->Execute("echo hi", &output, &command_error).ok());

  Dispatcher shell(&db);
  shell.AttachServer(server->get());
  std::istringstream in(
      "server status\n"
      "server status --format=json\n"
      "server status --format=yaml\n");
  std::ostringstream out;
  shell.Run(in, out);
  EXPECT_EQ(shell.error_count(), 1u) << out.str();  // only the bad format
  const std::string text = out.str();
  EXPECT_NE(text.find("listening:  127.0.0.1:"), std::string::npos) << text;
  EXPECT_NE(text.find("sessions:   1 active (1 accepted, 0 rejected)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ns= writable"), std::string::npos) << text;
  // The JSON contract: one JsonWriter, stable field names.
  EXPECT_NE(text.find("\"sessions_active\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"connections_accepted\":1"), std::string::npos);
  EXPECT_NE(text.find("\"sessions\":[{\"id\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"read_only\":false"), std::string::npos);
}

TEST(ShellNetTest, ReportedCountersAreTheRegistryCounters) {
  // One set of counters: after a wire workload, every counter that
  // `wal status`, `stats` and `server status` print equals the registry
  // counter of the same database's bundle.
  const std::string dir = ::testing::TempDir() + "/shell_one_counter_set";
  std::filesystem::remove_all(dir);
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->ExecuteDdl(
                      "obj-type Top = attributes: A: integer; end Top;"
                      "inher-rel-type R = transmitter: object-of-type Top;"
                      "  inheritor: object; inheriting: A; end R;"
                      "obj-type Mid = inheritor-in: R; end Mid;")
                  .ok());
  auto server = net::Server::Start(db->get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  {
    auto client = net::Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (const char* line :
         {"create Top", "create Mid", "set @1 A i:7", "bind @2 @1 R",
          "cache on", "get @2 A", "get @2 A", "set @1 A i:8", "get @2 A"}) {
      std::string output;
      bool command_error = false;
      ASSERT_TRUE((*client)->Execute(line, &output, &command_error).ok());
      ASSERT_FALSE(command_error) << line << ": " << output;
    }
  }
  // Quiesce: the closed session's reader and worker are done counting.
  for (int i = 0; i < 200 && (*server)->stats().sessions_active > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ((*server)->stats().sessions_active, 0u);

  Dispatcher shell(db->get());
  shell.AttachServer(server->get());
  std::istringstream in(
      "wal status --format=json\n"
      "stats --format=json\n"
      "server status --format=json\n");
  std::ostringstream out;
  shell.Run(in, out);
  ASSERT_EQ(shell.error_count(), 0u) << out.str();
  const std::string text = out.str();
  const obs::MetricsSnapshot registry =
      (*db)->observability()->metrics.Snapshot();
  // Rows: the JSON object holding the key (for server status, its first
  // key), the key, the registry counter.
  for (const char* row :
       {"log records_appended caddb_wal_appends_total",
        "log commits caddb_wal_commits_total",
        "log fsyncs caddb_wal_fsyncs_total",
        "log segments_created caddb_wal_segments_total",
        "log bytes_appended caddb_wal_bytes_appended_total",
        "resolution_cache hits caddb_inherit_cache_hits_total",
        "resolution_cache misses caddb_inherit_cache_misses_total",
        "resolution_cache invalidations "
        "caddb_inherit_cache_invalidations_total",
        "schema_cache hits caddb_catalog_schema_cache_hits_total",
        "schema_cache misses caddb_catalog_schema_cache_misses_total",
        "address connections_accepted caddb_net_connections_total",
        "address connections_rejected caddb_net_connections_rejected_total",
        "address requests caddb_net_requests_total",
        "address sheds caddb_net_sheds_total",
        "address protocol_errors caddb_net_protocol_errors_total",
        "address scrapes caddb_net_scrapes_total",
        "address bytes_in caddb_net_bytes_in_total",
        "address bytes_out caddb_net_bytes_out_total"}) {
    std::istringstream fields(row);
    std::string section, key, counter;
    fields >> section >> key >> counter;
    const size_t at = text.find("\"" + key + "\":",
                                text.find("\"" + section + "\":"));
    ASSERT_NE(at, std::string::npos) << row << " in " << text;
    EXPECT_EQ(std::stoull(text.substr(at + key.size() + 3)),
              registry.CounterValue(counter))
        << row;
  }
  EXPECT_EQ(registry.CounterValue("caddb_net_requests_total"), 9u);
  EXPECT_GT(registry.CounterValue("caddb_inherit_cache_hits_total"), 0u);
}


// ---- The verb table and the read-only gate ----

/// One sample line per verb form: every top-level verb, and every subverb
/// form that mutates. `mutates` is the line's expected read-only verdict.
struct VerbSample {
  std::string line;
  bool mutates;
};

std::vector<VerbSample> VerbSamples(const std::string& dir) {
  return {
      {"schema <<<", true},
      {"schema-file " + dir + "/none.ddl", true},
      {"print-schema", false},
      {"class boxes2 Box", true},
      {"create Box", true},
      {"create Box boxes", true},
      {"sub @3 Parts", true},
      {"rel Wire A=@1 B=@4", true},
      {"subrel @3 Wires A=@1 B=@4", true},
      {"bind @5 @1 R", true},
      {"unbind @5", true},
      {"set @1 W i:9", true},
      {"get @1 W", false},
      {"members @3 Parts", false},
      {"delete @2", true},
      {"delete @1 detach", true},
      {"check", false},
      {"check schema --format=json", false},
      {"check @1", false},
      {"check disk", false},
      {"check --repair", true},
      {"check store --repair --format=json", true},
      {"check-deep @3", false},
      {"check-all", false},
      {"violations", false},
      {"holds @1 W > 0", false},
      {"expand @3", false},
      {"expand @3 1", false},
      {"expand-dot @3", false},
      {"components @3", false},
      {"where-used @1", false},
      {"pending @5", false},
      {"ack @5", true},
      {"select Box W", false},
      {"select Box W where W > 0", false},
      {"stats", false},
      {"stats --format=json", false},
      {"metrics", false},
      {"metrics --format=prom", false},
      {"metrics --watch --window=1000", false},
      {"fault", false},
      {"fault list --format=json", false},
      {"fault arm wal.append.pre_fsync error --times=1", true},
      {"fault disarm wal.append.pre_fsync", true},
      {"fault disarm --all", true},
      {"trace", false},
      {"trace dump --slow-only --format=json", false},
      {"trace on", true},
      {"trace off", true},
      {"trace clear", true},
      {"trace threshold 5", true},
      {"log", false},
      {"log tail 5 --format=json", false},
      {"log level debug", true},
      {"cache", false},
      {"cache off", true},
      {"cache fine", true},
      {"cache on", true},
      {"cache reset-stats", true},
      {"dump " + dir + "/walk.cdb", true},
      {"load " + dir + "/walk.cdb", true},
      {"wal status --format=json", false},
      {"checkpoint", true},
      {"storage status", false},
      {"server status", false},
      {"ship " + dir + "/walk-replica", true},
      {"ship", true},
      {"replica status --format=json", false},
      {"replica poll", true},
      {"replica promote", true},
      {"replica reseed", true},
      {"echo hi", false},
      {"quit", false},
      {"exit", false},
  };
}

/// What a refused line must leave exactly as it was.
struct GatedState {
  std::string dump;
  uint64_t last_lsn = 0;
  size_t armed_sites = 0;
  bool trace_on = false;
  uint64_t slow_threshold_us = 0;
  bool cache_on = false;
  uint64_t cache_hits = 0;
  obs::LogLevel log_level = obs::LogLevel::kInfo;

  static GatedState Of(Database& db) {
    GatedState s;
    auto dump = persist::Dumper::Dump(db);
    EXPECT_TRUE(dump.ok()) << dump.status().ToString();
    if (dump.ok()) s.dump = *dump;
    s.last_lsn = db.wal()->last_lsn();
    for (const fault::SiteInfo& site :
         fault::FailpointRegistry::Global().List()) {
      if (site.armed) ++s.armed_sites;
    }
    s.trace_on = db.observability()->trace.enabled();
    s.slow_threshold_us = db.observability()->trace.slow_threshold_us();
    s.cache_on = db.inheritance().cache_enabled();
    s.cache_hits = db.inheritance().cache_hits();
    s.log_level = db.observability()->log.level();
    return s;
  }
  bool operator==(const GatedState&) const = default;
};

TEST(ShellVerbTableTest, EveryVerbHasASampleAndMutatorsAreRefusedReadOnly) {
  const std::string dir = ::testing::TempDir() + "/shell_verb_table";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto primary = Database::Open(dir + "/primary");
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  Database& db = **primary;
  {
    Dispatcher writer(&db);
    std::istringstream in(
        "schema <<<\n"
        "obj-type Box = attributes: W, H: integer; end Box;\n"
        "rel-type Wire = relates: A, B: object-of-type Box; end Wire;\n"
        "obj-type Asm = types-of-subclasses: Parts: Box;\n"
        "  types-of-subrels: Wires: Wire; end Asm;\n"
        "inher-rel-type R = transmitter: object-of-type Box;\n"
        "  inheritor: object; inheriting: W; end R;\n"
        "obj-type Impl = inheritor-in: R; end Impl;\n"
        ">>>\n"
        "class boxes Box\n"
        "create Box boxes\n"  // @1
        "create Box\n"        // @2
        "create Asm\n"        // @3
        "sub @3 Parts\n"      // @4
        "create Impl\n"       // @5
        "bind @5 @1 R\n"      // @6
        "set @1 W i:3\n"
        "set @1 H i:4\n"
        "trace threshold 7\n");
    std::ostringstream out;
    writer.Run(in, out);
    ASSERT_EQ(writer.error_count(), 0u) << out.str();
  }
  const std::vector<VerbSample> samples = VerbSamples(dir);

  // Every verb the table holds has at least one sample (a new verb forces a
  // decision here), and every sample names a verb of the table.
  const std::vector<std::string> verbs = Dispatcher::VerbNames();
  EXPECT_EQ(verbs.size(), 43u);
  for (const std::string& verb : verbs) {
    bool sampled = false;
    for (const VerbSample& s : samples) {
      sampled |= s.line == verb || s.line.rfind(verb + " ", 0) == 0;
    }
    EXPECT_TRUE(sampled) << "verb '" << verb << "' has no sample line";
  }
  for (const VerbSample& s : samples) {
    const std::string verb = s.line.substr(0, s.line.find(' '));
    EXPECT_NE(std::find(verbs.begin(), verbs.end(), verb), verbs.end())
        << s.line;
  }

  // A read-only dispatcher over the durable, writable primary: mutating
  // lines are refused and change nothing; the rest pass the gate.
  ASSERT_TRUE(fault::FailpointRegistry::Global().List().size() > 0);
  Dispatcher reader(&db);
  reader.set_read_only(true);
  for (const VerbSample& s : samples) {
    const GatedState before = GatedState::Of(db);
    EXPECT_EQ(before.armed_sites, 0u);
    const size_t errors = reader.error_count();
    std::ostringstream out;
    reader.ExecuteLine(s.line, out);
    if (s.mutates) {
      EXPECT_EQ(out.str().rfind("error: PermissionDenied: read-only session",
                                0),
                0u)
          << s.line << ": " << out.str();
      EXPECT_EQ(reader.error_count(), errors + 1) << s.line;
    } else {
      EXPECT_EQ(out.str().find("read-only session"), std::string::npos)
          << s.line << ": " << out.str();
    }
    EXPECT_TRUE(GatedState::Of(db) == before) << s.line << " changed state";
  }

  // The same gate over a follower's database: no read is refused.
  replication::Shipper shipper(&db, dir + "/replica");
  ASSERT_TRUE(shipper.ShipNow().ok());
  replication::FollowerOptions options;
  options.sleeper = [](uint64_t) {};
  replication::Follower follower(dir + "/replica", options);
  ASSERT_TRUE(follower.Poll().ok());
  Dispatcher follower_reader(follower.db());
  follower_reader.AttachFollower(&follower);
  follower_reader.set_read_only(true);
  for (const VerbSample& s : samples) {
    if (s.mutates) continue;
    std::ostringstream out;
    follower_reader.ExecuteLine(s.line, out);
    EXPECT_EQ(out.str().find("read-only session"), std::string::npos)
        << s.line << ": " << out.str();
  }
  ASSERT_TRUE(db.Close().ok());
}

}  // namespace
}  // namespace shell
}  // namespace caddb
