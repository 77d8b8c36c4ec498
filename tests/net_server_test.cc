#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "core/database.h"
#include "net/client.h"
#include "obs/exposition.h"
#include "replication/follower.h"
#include "replication/shipper.h"

namespace caddb {
namespace net {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test.
class TestDir {
 public:
  explicit TestDir(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("caddb_net_" + name + "_" +
                std::to_string(::getpid())))
                  .string()) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
  }
  ~TestDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string Sub(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kBoxDdl =
    "obj-type Box = attributes: W, H: integer; end Box;";

/// One of everything: attributes, classes, subobjects, relationships,
/// subrels, and an inheritance relationship — enough schema that every
/// shell verb has something real to act on.
const char* const kFullSchemaLines[] = {
    "obj-type Box = attributes: W, H: integer; end Box;",
    "rel-type Wire = relates: A, B: object-of-type Box; end Wire;",
    "obj-type Asm =",
    "  types-of-subclasses: Parts: Box;",
    "  types-of-subrels: Wires: Wire;",
    "end Asm;",
    "inher-rel-type R =",
    "  transmitter: object-of-type Box;",
    "  inheritor: object; inheriting: W;",
    "end R;",
    "obj-type Impl = inheritor-in: R; end Impl;",
};

std::unique_ptr<Server> MustStart(Database* db, ServerOptions options = {}) {
  auto started = Server::Start(db, std::move(options));
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return std::move(*started);
}

std::unique_ptr<Client> MustConnect(const Server& server,
                                    ClientOptions options = {}) {
  auto client = Client::Connect("127.0.0.1", server.port(), options);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

/// Runs one line, expecting command success; returns its output.
std::string Ok(Client* client, const std::string& line) {
  std::string output;
  bool command_error = true;
  Status s = client->Execute(line, &output, &command_error);
  EXPECT_TRUE(s.ok()) << line << ": " << s.ToString();
  EXPECT_FALSE(command_error) << line << " -> " << output;
  return output;
}

TEST(NetServerTest, EveryShellVerbRoundTrips) {
  TestDir dir("verbs");
  auto opened = Database::Open(dir.Sub("db"));
  ASSERT_TRUE(opened.ok());
  Database* db = opened->get();
  auto server = MustStart(db);
  auto client = MustConnect(*server);
  EXPECT_TRUE(client->writable());

  // Schema block spans multiple lines — each travels as its own request.
  Ok(client.get(), "schema <<<");
  for (const char* line : kFullSchemaLines) Ok(client.get(), line);
  EXPECT_EQ(Ok(client.get(), ">>>"), "ok\n");

  EXPECT_EQ(Ok(client.get(), "create Box"), "@1\n");
  EXPECT_EQ(Ok(client.get(), "set @1 W i:3"), "ok\n");
  EXPECT_EQ(Ok(client.get(), "set @1 H i:4"), "ok\n");
  EXPECT_EQ(Ok(client.get(), "get @1 W"), "3\n");
  EXPECT_EQ(Ok(client.get(), "class boxes Box"), "ok\n");
  EXPECT_EQ(Ok(client.get(), "create Box boxes"), "@2\n");
  Ok(client.get(), "set @2 W i:1");
  Ok(client.get(), "set @2 H i:1");
  EXPECT_EQ(Ok(client.get(), "create Asm"), "@3\n");
  EXPECT_EQ(Ok(client.get(), "sub @3 Parts"), "@4\n");
  Ok(client.get(), "set @4 W i:2");
  Ok(client.get(), "set @4 H i:2");
  EXPECT_EQ(Ok(client.get(), "members @3 Parts"), "@4 (1)\n");
  EXPECT_EQ(Ok(client.get(), "rel Wire A=@1 B=@4"), "@5\n");
  EXPECT_EQ(Ok(client.get(), "subrel @3 Wires A=@1 B=@4"), "@6\n");
  EXPECT_EQ(Ok(client.get(), "create Impl"), "@7\n");
  EXPECT_EQ(Ok(client.get(), "bind @7 @1 R"), "@8\n");
  EXPECT_EQ(Ok(client.get(), "get @7 W"), "3\n");  // inherited
  Ok(client.get(), "set @1 W i:5");                // -> pending for @7
  Ok(client.get(), "pending @7");
  EXPECT_EQ(Ok(client.get(), "ack @7"), "ok\n");
  Ok(client.get(), "where-used @1");
  Ok(client.get(), "components @3");
  Ok(client.get(), "expand @3");
  Ok(client.get(), "expand-dot @3");
  EXPECT_EQ(Ok(client.get(), "holds @1 W * H = 20"), "true\n");
  Ok(client.get(), "print-schema");
  Ok(client.get(), "select Box W");
  EXPECT_EQ(Ok(client.get(), "check @1"), "ok\n");
  EXPECT_EQ(Ok(client.get(), "check-deep @3"), "ok\n");
  EXPECT_EQ(Ok(client.get(), "check-all"), "ok\n");
  Ok(client.get(), "check");
  Ok(client.get(), "check disk");
  EXPECT_EQ(Ok(client.get(), "violations"), "(0 violations)\n");
  Ok(client.get(), "stats");
  Ok(client.get(), "stats --format=json");
  Ok(client.get(), "metrics");
  Ok(client.get(), "metrics --format=prom");
  EXPECT_EQ(Ok(client.get(), "trace on"), "ok\n");
  Ok(client.get(), "trace dump");
  EXPECT_EQ(Ok(client.get(), "trace off"), "ok\n");
  Ok(client.get(), "cache");
  EXPECT_EQ(Ok(client.get(), "cache fine"), "ok\n");
  Ok(client.get(), "wal status");
  Ok(client.get(), "wal status --format=json");
  Ok(client.get(), "checkpoint");
  Ok(client.get(), "storage status");
  Ok(client.get(), "server status");
  Ok(client.get(), "server status --format=json");
  Ok(client.get(), "dump " + dir.Sub("dump.cdb"));
  {
    // `load` needs an empty database — the point here is that the verb and
    // its FailedPrecondition travel the wire faithfully.
    std::string output;
    bool command_error = false;
    ASSERT_TRUE(client
                    ->Execute("load " + dir.Sub("dump.cdb"), &output,
                              &command_error)
                    .ok());
    EXPECT_TRUE(command_error);
    EXPECT_NE(output.find("empty database"), std::string::npos);
  }
  Ok(client.get(), "ship " + dir.Sub("replica"));
  Ok(client.get(), "replica status");
  EXPECT_EQ(Ok(client.get(), "echo over the wire"), "over the wire\n");
  EXPECT_EQ(Ok(client.get(), "unbind @7"), "ok\n");
  EXPECT_EQ(Ok(client.get(), "delete @2"), "ok\n");

  server->Shutdown();
  ASSERT_TRUE(db->Close().ok());
}

TEST(NetServerTest, CommandErrorsTravelWithTheErrorFlag) {
  Database db;
  auto server = MustStart(&db);
  auto client = MustConnect(*server);
  std::string output;
  bool command_error = false;
  ASSERT_TRUE(client->Execute("frobnicate", &output, &command_error).ok());
  EXPECT_TRUE(command_error);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(NetServerTest, SessionStateIsPerConnection) {
  Database db;
  auto server = MustStart(&db);
  auto a = MustConnect(*server);
  auto b = MustConnect(*server);
  // `a` is mid-schema-block; `b` must not be.
  Ok(a.get(), "schema <<<");
  EXPECT_EQ(Ok(b.get(), "echo plain"), "plain\n");
  std::string output;
  bool command_error = true;
  ASSERT_TRUE(a->Execute(kBoxDdl, &output, &command_error).ok());
  EXPECT_EQ(Ok(a.get(), ">>>"), "ok\n");
  // Both sessions share the database: b sees a's schema.
  EXPECT_EQ(Ok(b.get(), "create Box"), "@1\n");
}

TEST(NetServerTest, ReadOnlyRoleBlocksMutations) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kBoxDdl).ok());
  ASSERT_TRUE(db.CreateObject("Box", "").ok());
  auto server = MustStart(&db);
  ClientOptions ro;
  ro.role = SessionRole::kReadOnly;
  auto client = MustConnect(*server, ro);
  EXPECT_FALSE(client->writable());
  std::string output;
  bool command_error = false;
  ASSERT_TRUE(client->Execute("create Box", &output, &command_error).ok());
  EXPECT_TRUE(command_error);
  EXPECT_NE(output.find("read-only session"), std::string::npos);
  // Reads still pass.
  EXPECT_EQ(Ok(client.get(), "echo hi"), "hi\n");
  Ok(client.get(), "select Box");
}

TEST(NetServerTest, ReadOnlyServerForcesEverySession) {
  Database db;
  ServerOptions options;
  options.read_only = true;
  auto server = MustStart(&db, std::move(options));
  ClientOptions writable;
  writable.role = SessionRole::kWritable;
  auto client = MustConnect(*server, writable);
  EXPECT_FALSE(client->writable());
  EXPECT_NE(client->banner().find("read-only"), std::string::npos);
}

TEST(NetServerTest, AdmissionControlRejectsBeyondMaxConnections) {
  Database db;
  ServerOptions options;
  options.max_connections = 2;
  auto server = MustStart(&db, std::move(options));
  auto a = MustConnect(*server);
  auto b = MustConnect(*server);
  auto refused = Client::Connect("127.0.0.1", server->port());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Code::kUnavailable);
  EXPECT_NE(refused.status().ToString().find("max connections"),
            std::string::npos);
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_rejected, 1u);
  // Closing one admits the next (poll for the reader teardown).
  a->Close();
  bool admitted = false;
  for (int i = 0; i < 100 && !admitted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    admitted = Client::Connect("127.0.0.1", server->port()).ok();
  }
  EXPECT_TRUE(admitted);
}

TEST(NetServerTest, BackpressureShedsInBoundedTimeWithoutDeadlock) {
  Database db;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> entered{0};
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 2;
  options.session_inflight_cap = 100;
  options.worker_hook_for_test = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  auto server = MustStart(&db, std::move(options));

  // Raw framed session so requests can be pipelined.
  auto sock = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  const std::string hello = EncodeFrame(
      FrameType::kHello, EncodeHelloPayload(SessionRole::kDefault, ""));
  ASSERT_TRUE(sock->SendAll(hello.data(), hello.size()).ok());
  FrameDecoder decoder;
  char buf[4096];
  auto read_frame = [&]() -> Frame {
    Frame frame;
    while (!decoder.Next(&frame)) {
      Result<size_t> n = sock->Recv(buf, sizeof(buf));
      EXPECT_TRUE(n.ok() && *n > 0) << "connection died";
      EXPECT_TRUE(decoder.Feed(buf, *n).ok());
    }
    return frame;
  };
  EXPECT_EQ(read_frame().type, FrameType::kHelloOk);

  // Park the worker on the first request before bursting the rest —
  // otherwise whether 2 or 3 requests get in depends on dequeue timing.
  const int kBurst = 10;
  const std::string first =
      EncodeFrame(FrameType::kRequest, EncodeRequestPayload(1, "echo hi"));
  ASSERT_TRUE(sock->SendAll(first.data(), first.size()).ok());
  for (int i = 0; i < 5000 && entered.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(entered.load(), 1);
  // Burst the other 9 at the blocked worker's 2-deep queue: 2 enqueue, the
  // other 7 must come back as sheds while the worker is still blocked —
  // bounded-latency backpressure, not buffering.
  for (int i = 1; i < kBurst; ++i) {
    const std::string frame = EncodeFrame(
        FrameType::kRequest,
        EncodeRequestPayload(static_cast<uint64_t>(i + 1), "echo hi"));
    ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
  }
  int sheds = 0;
  while (sheds < kBurst - 3) {
    Frame frame = read_frame();
    ASSERT_EQ(frame.type, FrameType::kShed);
    ++sheds;
  }
  EXPECT_EQ(entered.load(), 1);  // worker still parked on the first request
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  int responses = 0;
  while (responses < 3) {
    Frame frame = read_frame();
    ASSERT_EQ(frame.type, FrameType::kResponse);
    ++responses;
  }
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.sheds, static_cast<uint64_t>(kBurst - 3));
  EXPECT_EQ(stats.requests, 3u);
}

TEST(NetServerTest, SessionInflightCapShedsGreedyPipeliners) {
  Database db;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 100;
  options.session_inflight_cap = 2;
  options.worker_hook_for_test = [&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  auto server = MustStart(&db, std::move(options));
  auto sock = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  const std::string hello = EncodeFrame(
      FrameType::kHello, EncodeHelloPayload(SessionRole::kDefault, ""));
  ASSERT_TRUE(sock->SendAll(hello.data(), hello.size()).ok());
  FrameDecoder decoder;
  char buf[4096];
  auto read_frame = [&]() -> Frame {
    Frame frame;
    while (!decoder.Next(&frame)) {
      Result<size_t> n = sock->Recv(buf, sizeof(buf));
      EXPECT_TRUE(n.ok() && *n > 0);
      EXPECT_TRUE(decoder.Feed(buf, *n).ok());
    }
    return frame;
  };
  EXPECT_EQ(read_frame().type, FrameType::kHelloOk);
  for (int i = 0; i < 5; ++i) {
    const std::string frame = EncodeFrame(
        FrameType::kRequest,
        EncodeRequestPayload(static_cast<uint64_t>(i + 1), "echo hi"));
    ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
  }
  int sheds = 0;
  while (sheds < 3) {
    Frame frame = read_frame();
    ASSERT_EQ(frame.type, FrameType::kShed);
    uint64_t id = 0;
    std::string reason;
    ASSERT_TRUE(DecodeShedPayload(frame.payload, &id, &reason).ok());
    EXPECT_NE(reason.find("session cap"), std::string::npos);
    ++sheds;
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  int responses = 0;
  while (responses < 2) {
    Frame frame = read_frame();
    ASSERT_EQ(frame.type, FrameType::kResponse);
    ++responses;
  }
}

TEST(NetServerTest, ShutdownDrainsQueuedRequestsWithoutHanging) {
  Database db;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> entered{0};
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 8;
  options.session_inflight_cap = 100;
  options.worker_hook_for_test = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  auto server = MustStart(&db, std::move(options));
  auto sock = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  const std::string hello = EncodeFrame(
      FrameType::kHello, EncodeHelloPayload(SessionRole::kDefault, ""));
  ASSERT_TRUE(sock->SendAll(hello.data(), hello.size()).ok());
  // Four pipelined requests: one enters the (blocked) worker, three sit in
  // the queue holding inflight counts.
  for (int i = 0; i < 4; ++i) {
    const std::string frame = EncodeFrame(
        FrameType::kRequest,
        EncodeRequestPayload(static_cast<uint64_t>(i + 1), "echo hi"));
    ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
  }
  for (int i = 0; i < 5000 && entered.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(entered.load(), 1);
  // Shut down with requests still queued. The worker exits on stop_ without
  // running them, so Shutdown must drop their inflight counts itself —
  // otherwise the reader's inflight drain (and this join) never finishes.
  std::thread shutdown_thread([&] { server->Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  shutdown_thread.join();
}

TEST(NetServerTest, RequestBeforeHelloIsAProtocolError) {
  Database db;
  auto server = MustStart(&db);
  auto sock = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  const std::string request =
      EncodeFrame(FrameType::kRequest, EncodeRequestPayload(1, "echo hi"));
  ASSERT_TRUE(sock->SendAll(request.data(), request.size()).ok());
  FrameDecoder decoder;
  char buf[4096];
  Frame frame;
  while (!decoder.Next(&frame)) {
    Result<size_t> n = sock->Recv(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u);
    ASSERT_TRUE(decoder.Feed(buf, *n).ok());
  }
  EXPECT_EQ(frame.type, FrameType::kProtocolError);
  EXPECT_NE(frame.payload.find("request before hello"), std::string::npos);
}

TEST(NetServerTest, GarbageBytesGetProtocolErrorNotCrash) {
  Database db;
  auto server = MustStart(&db);
  auto sock = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  const std::string garbage = "CADGARBAGE-not-a-frame-at-all........";
  ASSERT_TRUE(sock->SendAll(garbage.data(), garbage.size()).ok());
  // The server answers with a kProtocolError frame and closes.
  FrameDecoder decoder;
  char buf[4096];
  Frame frame;
  bool got = false;
  while (!got) {
    Result<size_t> n = sock->Recv(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    if (!decoder.Feed(buf, *n).ok()) break;
    got = decoder.Next(&frame);
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(frame.type, FrameType::kProtocolError);
  // A later clean connection still works: one poisoned session never takes
  // the server down.
  auto client = MustConnect(*server);
  EXPECT_EQ(Ok(client.get(), "echo alive"), "alive\n");
  EXPECT_GE(server->stats().protocol_errors, 1u);
}

TEST(NetServerTest, HttpScrapeServesPrometheusText) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kBoxDdl).ok());
  auto server = MustStart(&db);
  auto client = MustConnect(*server);
  Ok(client.get(), "create Box");

  auto body = Client::HttpGet("127.0.0.1", server->port(), "/metrics");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  std::string error;
  EXPECT_TRUE(obs::ValidatePrometheusText(*body, &error)) << error;
  EXPECT_NE(body->find("caddb_net_connections"), std::string::npos);
  EXPECT_NE(body->find("caddb_net_requests_total"), std::string::npos);
  EXPECT_NE(body->find("caddb_net_request_us"), std::string::npos);

  // The scrape serves the same exposition the shell's
  // `metrics --format=prom` renders: same family set (values may differ —
  // the scrape itself moves net counters).
  const std::string shell_prom = Ok(client.get(), "metrics --format=prom");
  auto families = [](const std::string& text) {
    std::set<std::string> names;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("# TYPE ", 0) == 0) {
        names.insert(line.substr(7, line.find(' ', 7) - 7));
      }
    }
    return names;
  };
  EXPECT_EQ(families(*body), families(shell_prom));

  EXPECT_TRUE(
      Client::HttpGet("127.0.0.1", server->port(), "/healthz").ok());
  EXPECT_FALSE(
      Client::HttpGet("127.0.0.1", server->port(), "/nope").ok());
  EXPECT_GE(server->stats().scrapes, 1u);
}

TEST(NetServerTest, ServerStatusOverTheWire) {
  Database db;
  auto server = MustStart(&db);
  auto client = MustConnect(*server);
  Ok(client.get(), "echo warmup");
  const std::string text = Ok(client.get(), "server status");
  EXPECT_NE(text.find("listening:"), std::string::npos);
  EXPECT_NE(text.find("sessions:"), std::string::npos);
  const std::string json = Ok(client.get(), "server status --format=json");
  EXPECT_NE(json.find("\"sessions_active\":1"), std::string::npos);
  EXPECT_NE(json.find("\"queue_capacity\":128"), std::string::npos);
  EXPECT_NE(json.find("\"sessions\":["), std::string::npos);
}

TEST(NetServerTest, LagGateShedsWhenReplicaIsBehind) {
  TestDir dir("laggate");
  obs::Observability obs;
  replication::FollowerOptions follower_options;
  follower_options.obs = &obs;
  replication::Follower follower(dir.Sub("replica"),
                                 std::move(follower_options));
  ServerOptions options;
  options.obs = &obs;
  options.max_replica_lag = 10;
  auto server = MustStart(nullptr, std::move(options));
  server->ServeFollower(&follower);
  auto client = MustConnect(*server);
  EXPECT_FALSE(client->writable());

  // Never-synced follower: no database at all -> sheds.
  std::string output;
  bool command_error = false;
  Status s = client->Execute("echo hi", &output, &command_error);
  EXPECT_EQ(s.code(), Code::kUnavailable);
  EXPECT_NE(s.ToString().find("no database"), std::string::npos);

  // Stand up real replicated state, then poll the follower caught-up.
  {
    auto primary = Database::Open(dir.Sub("primary"));
    ASSERT_TRUE(primary.ok());
    ASSERT_TRUE((*primary)->ExecuteDdl(kBoxDdl).ok());
    ASSERT_TRUE((*primary)->CreateObject("Box", "").ok());
    replication::Shipper shipper(primary->get(), dir.Sub("replica"));
    ASSERT_TRUE(shipper.ShipNow().ok());
    ASSERT_TRUE((*primary)->Close().ok());
  }
  {
    auto exec = server->PauseExecution();
    ASSERT_TRUE(follower.Poll().ok());
  }
  EXPECT_EQ(Ok(client.get(), "get @1 W").find("error"), std::string::npos);

  // Force the lag gauge over the threshold: requests shed with the lag in
  // the reason, flip it back: requests serve again.
  obs.metrics.GetGauge("caddb_replication_replica_lag")->Set(11);
  s = client->Execute("echo hi", &output, &command_error);
  EXPECT_EQ(s.code(), Code::kUnavailable);
  EXPECT_NE(s.ToString().find("replica lag 11 exceeds max 10"),
            std::string::npos);
  obs.metrics.GetGauge("caddb_replication_replica_lag")->Set(3);
  EXPECT_EQ(Ok(client.get(), "echo back"), "back\n");
}

TEST(NetServerTest, QuitOverTheWireEndsTheSession) {
  Database db;
  auto server = MustStart(&db);
  auto client = MustConnect(*server);
  std::string output;
  bool command_error = false;
  ASSERT_TRUE(client->Execute("quit", &output, &command_error).ok());
  Status after = client->Execute("echo hi", &output, &command_error);
  EXPECT_FALSE(after.ok());
}

TEST(NetServerTest, ShutdownWithActiveSessionsIsClean) {
  Database db;
  auto server = MustStart(&db);
  auto client = MustConnect(*server);
  Ok(client.get(), "echo hi");
  server->Shutdown();
  std::string output;
  bool command_error = false;
  EXPECT_FALSE(client->Execute("echo hi", &output, &command_error).ok());
  // Idempotent.
  server->Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace caddb
