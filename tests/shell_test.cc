#include "shell/shell.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "obs/exposition.h"

namespace caddb {
namespace shell {
namespace {

/// Runs `script` through a fresh shell; returns its full output.
std::string RunScript(const std::string& script, size_t* errors = nullptr,
                      Database* external_db = nullptr) {
  Database local_db;
  Database* db = external_db != nullptr ? external_db : &local_db;
  Shell shell(db);
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

  Shell shell(&db);
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

  Shell shell(db->get());
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

}  // namespace
}  // namespace shell
}  // namespace caddb
