// Distributed trace propagation across the wire: the versioned trace
// extension in request/response payloads, banner capability negotiation,
// client-root → server-subtree linkage in one process, the primary-commit →
// MANIFEST → follower-rebuild chain, and a cross-process round trip against
// the real caddb_server binary asserting the client's trace id shows up in
// the server's own `trace dump --format=json`.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/database.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/log.h"
#include "obs/observability.h"
#include "replication/follower.h"
#include "replication/manifest.h"
#include "wal/log_io.h"

namespace caddb {
namespace net {
namespace {

namespace fs = std::filesystem;

class TestDir {
 public:
  explicit TestDir(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("caddb_nettrace_" + name + "_" + std::to_string(::getpid())))
                  .string()) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
  }
  ~TestDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

std::unique_ptr<Server> MustStart(Database* db, ServerOptions options = {}) {
  options.port = 0;
  auto started = Server::Start(db, std::move(options));
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return std::move(*started);
}

/// The first span with `name` in the tracer's ring, or nullopt.
const obs::SpanRecord* FindSpan(const std::vector<obs::SpanRecord>& spans,
                                const std::string& name) {
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Wire format.

TEST(TraceWire, BannerCapabilityParsing) {
  EXPECT_TRUE(BannerHasCapability("caddb 127.0.0.1:4217 caps=trace",
                                  kTraceCapability));
  EXPECT_TRUE(BannerHasCapability("caddb x caps=foo,trace,bar", "trace"));
  EXPECT_FALSE(BannerHasCapability("caddb 127.0.0.1:4217", "trace"));
  EXPECT_FALSE(BannerHasCapability("caddb x caps=tracer", "trace"));
  EXPECT_FALSE(BannerHasCapability("caddb x capstone=trace", "trace"));
  EXPECT_FALSE(BannerHasCapability("", "trace"));
}

TEST(TraceWire, RequestExtensionRoundTripsAndInterops) {
  obs::TraceContext ctx{0x1122334455667788ULL, 0x99aabbccddeeff00ULL};
  const std::string with_ext = EncodeRequestPayload(7, "stats", ctx);

  uint64_t id = 0;
  std::string line;
  obs::TraceContext decoded;
  ASSERT_TRUE(DecodeRequestPayload(with_ext, &id, &line, &decoded).ok());
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(line, "stats");
  EXPECT_EQ(decoded.trace_id, ctx.trace_id);
  EXPECT_EQ(decoded.parent_span_id, ctx.parent_span_id);

  // An old peer's decoder (no ctx out-param) still reads the line cleanly.
  id = 0;
  line.clear();
  ASSERT_TRUE(DecodeRequestPayload(with_ext, &id, &line).ok());
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(line, "stats");

  // An old peer's encoding decodes with an invalid (absent) context.
  const std::string without_ext = EncodeRequestPayload(9, "echo hi");
  decoded = obs::TraceContext{};
  ASSERT_TRUE(
      DecodeRequestPayload(without_ext, &id, &line, &decoded).ok());
  EXPECT_EQ(line, "echo hi");
  EXPECT_FALSE(decoded.valid());

  // An invalid context encodes to the old format, byte for byte.
  EXPECT_EQ(EncodeRequestPayload(9, "echo hi", obs::TraceContext{}),
            without_ext);
}

TEST(TraceWire, ResponseExtensionRoundTripsAndInterops) {
  obs::TraceContext ctx{42, 43};
  const std::string with_ext =
      EncodeResponsePayload(5, /*error=*/true, "error: nope\n", ctx);
  uint64_t id = 0;
  bool error = false;
  std::string output;
  obs::TraceContext decoded;
  ASSERT_TRUE(
      DecodeResponsePayload(with_ext, &id, &error, &output, &decoded).ok());
  EXPECT_EQ(id, 5u);
  EXPECT_TRUE(error);
  EXPECT_EQ(output, "error: nope\n");
  EXPECT_EQ(decoded.trace_id, 42u);
  EXPECT_EQ(decoded.parent_span_id, 43u);

  ASSERT_TRUE(DecodeResponsePayload(with_ext, &id, &error, &output).ok());
  EXPECT_EQ(output, "error: nope\n");

  const std::string without_ext = EncodeResponsePayload(5, false, "ok\n");
  decoded = obs::TraceContext{};
  ASSERT_TRUE(
      DecodeResponsePayload(without_ext, &id, &error, &output, &decoded)
          .ok());
  EXPECT_FALSE(decoded.valid());
}

TEST(TraceWire, MalformedExtensionIsAProtocolError) {
  obs::TraceContext ctx{1, 2};
  // An empty command keeps the extension at the tail, so the resize below
  // tears the extension itself rather than the line.
  std::string payload = EncodeRequestPayload(3, "", ctx);
  payload.resize(payload.size() - 4);
  uint64_t id = 0;
  std::string line;
  obs::TraceContext decoded;
  EXPECT_FALSE(DecodeRequestPayload(payload, &id, &line, &decoded).ok());

  std::string bad_magic = EncodeRequestPayload(3, "stats", ctx);
  bad_magic[9] = 'X';  // NUL present but not a well-formed extension
  EXPECT_FALSE(DecodeRequestPayload(bad_magic, &id, &line, &decoded).ok());
}

// ---------------------------------------------------------------------------
// One process, two tracers: the client root adopts the server subtree.

TEST(TracePropagation, ClientRootLinksServerRequestSpan) {
  Database db;
  db.observability()->trace.Enable();
  auto server = MustStart(&db);

  obs::Observability client_obs;
  client_obs.trace.Enable();
  ClientOptions options;
  options.obs = &client_obs;
  auto client = Client::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->server_traces())
      << "banner: " << (*client)->banner();

  std::string output;
  bool command_error = false;
  ASSERT_TRUE((*client)->Execute("echo ping", &output, &command_error).ok());
  EXPECT_EQ(output, "ping\n");

  const obs::TraceContext server_ctx = (*client)->last_server_context();
  ASSERT_TRUE(server_ctx.valid()) << "server did not echo its span context";

  const std::vector<obs::SpanRecord> client_spans =
      client_obs.trace.Dump(false);
  const obs::SpanRecord* execute =
      FindSpan(client_spans, "net.client.execute");
  ASSERT_NE(execute, nullptr);
  EXPECT_NE(execute->trace_id, 0u);
  EXPECT_EQ(execute->trace_id, server_ctx.trace_id)
      << "one request, one trace id on both sides of the wire";

  const std::vector<obs::SpanRecord> server_spans =
      db.observability()->trace.Dump(false);
  const obs::SpanRecord* request = FindSpan(server_spans, "net.request");
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->trace_id, execute->trace_id);
  EXPECT_EQ(request->parent_id, execute->id)
      << "the server span must parent on the client's span id across "
         "processes";
  EXPECT_EQ(request->id, server_ctx.parent_span_id);
  (*client)->Close();
}

TEST(TracePropagation, UntracedClientYieldsFreshServerRoots) {
  Database db;
  db.observability()->trace.Enable();
  auto server = MustStart(&db);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::string output;
  bool command_error = false;
  ASSERT_TRUE((*client)->Execute("echo one", &output, &command_error).ok());
  EXPECT_FALSE((*client)->last_server_context().valid())
      << "no request context -> no response extension (old-client path)";

  const std::vector<obs::SpanRecord> spans =
      db.observability()->trace.Dump(false);
  const obs::SpanRecord* request = FindSpan(spans, "net.request");
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->parent_id, 0u);
  EXPECT_NE(request->trace_id, 0u) << "absent context mints a fresh root";
  (*client)->Close();
}

// ---------------------------------------------------------------------------
// The fleet chain: client commit -> wal -> MANIFEST -> follower rebuild,
// one trace id end to end.

TEST(TracePropagation, CommitTraceReachesManifestAndFollowerRebuild) {
  TestDir dir("fleet");
  auto opened = Database::Open(dir.Sub("primary"));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  db->observability()->trace.Enable();
  auto server = MustStart(db.get());

  obs::Observability client_obs;
  client_obs.trace.Enable();
  ClientOptions options;
  options.obs = &client_obs;
  auto client = Client::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::string output;
  bool command_error = false;
  auto run = [&](const std::string& line) {
    Status s = (*client)->Execute(line, &output, &command_error);
    ASSERT_TRUE(s.ok()) << line << ": " << s.ToString();
    ASSERT_FALSE(command_error) << line << ": " << output;
  };
  run("schema <<<");
  run("obj-type Part =");
  run("  attributes:");
  run("    W: integer;");
  run("end Part;");
  run(">>>");
  run("create Part");  // the last commit before shipping
  const uint64_t commit_trace = (*client)->last_server_context().trace_id;
  ASSERT_NE(commit_trace, 0u);

  run("checkpoint");
  run("ship " + dir.Sub("replica"));

  // The shipped manifest carries the commit's context.
  auto manifest_text = wal::ReadFileToString(
      (fs::path(dir.Sub("replica")) / replication::kManifestFileName)
          .string());
  ASSERT_TRUE(manifest_text.ok());
  auto manifest = replication::Manifest::Decode(*manifest_text);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_TRUE(manifest->trace.valid());
  EXPECT_EQ(manifest->trace.trace_id, commit_trace)
      << "MANIFEST must link back to the originating commit";

  // A follower's rebuild span joins the same tree.
  obs::Observability follower_obs;
  follower_obs.trace.Enable();
  replication::FollowerOptions follower_options;
  follower_options.obs = &follower_obs;
  replication::Follower follower(dir.Sub("replica"),
                                 std::move(follower_options));
  auto polled = follower.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_TRUE(polled->advanced);

  const std::vector<obs::SpanRecord> spans = follower_obs.trace.Dump(false);
  const obs::SpanRecord* rebuild = FindSpan(spans, "replication.rebuild");
  ASSERT_NE(rebuild, nullptr);
  EXPECT_EQ(rebuild->trace_id, commit_trace)
      << "client, primary commit and follower rebuild share one trace tree";
  EXPECT_EQ(rebuild->parent_id, manifest->trace.parent_span_id);
  (*client)->Close();
}

// ---------------------------------------------------------------------------
// Cross-process: the client's trace id appears in the real server's own
// trace ring, read back over the wire as JSON.

#ifdef CADDB_SERVER_BIN
TEST(TracePropagation, CrossProcessRoundTripAgainstRealServer) {
  TestDir dir("xproc");
  const std::string port_file = dir.Sub("port");
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    ::execl(CADDB_SERVER_BIN, "caddb_server", dir.Sub("db").c_str(),
            "--port", "0", "--port-file", port_file.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  uint16_t port = 0;
  for (int i = 0; i < 200 && port == 0; ++i) {
    std::ifstream f(port_file);
    int p = 0;
    if (f >> p && p > 0) {
      port = static_cast<uint16_t>(p);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_NE(port, 0) << "server never wrote its port file";

  obs::Observability client_obs;
  client_obs.trace.Enable();
  ClientOptions options;
  options.obs = &client_obs;
  auto client = Client::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->server_traces());

  std::string output;
  bool command_error = false;
  ASSERT_TRUE((*client)->Execute("trace on", &output, &command_error).ok());
  ASSERT_FALSE(command_error) << output;
  ASSERT_TRUE((*client)->Execute("echo ping", &output, &command_error).ok());
  const uint64_t trace_id = (*client)->last_server_context().trace_id;
  ASSERT_NE(trace_id, 0u);

  ASSERT_TRUE((*client)
                  ->Execute("trace dump --format=json", &output,
                            &command_error)
                  .ok());
  ASSERT_FALSE(command_error) << output;
  EXPECT_NE(output.find(obs::TraceIdHex(trace_id)), std::string::npos)
      << "client trace id " << obs::TraceIdHex(trace_id)
      << " missing from the server's trace dump: " << output;

  (*client)->Close();
  ASSERT_EQ(kill(child, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}
#endif  // CADDB_SERVER_BIN

}  // namespace
}  // namespace net
}  // namespace caddb
