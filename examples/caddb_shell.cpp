// Interactive shell over a caddb database.
//
//   ./build/examples/caddb_shell                 in-memory session
//   ./build/examples/caddb_shell <dir>           durable session (WAL +
//                                                checkpoints under <dir>;
//                                                recovers on open)
//   ./build/examples/caddb_shell --follow <dir>  follower session: tail a
//                                                replica directory a primary
//                                                ships into (`ship <dir>` on
//                                                the primary side); read-only
//                                                until `replica promote`
//   ./build/examples/caddb_shell --check <dir> [--fix] [--format=json]
//                                                offline disk verification:
//                                                audits every on-disk
//                                                artifact (CAD3xx) WITHOUT
//                                                opening the database —
//                                                works on a database too
//                                                damaged to open. --fix
//                                                applies the guarded repair
//                                                plan and re-verifies.
//                                                Exit 0: clean (warnings
//                                                allowed), 1: errors found,
//                                                2: cannot run at all.
//   ./build/examples/caddb_shell --connect host:port [--read-only]
//                                [--retries=N] [--timeout-ms=N]
//                                                network session: proxy each
//                                                command line to a running
//                                                caddb_server over the framed
//                                                protocol; same verbs, same
//                                                exit-code contract. Sheds,
//                                                timeouts and lost
//                                                connections retry with
//                                                jittered backoff (N
//                                                attempts, default 4)
//   ./build/examples/caddb_shell --scrape host:port [path]
//                                                one-shot HTTP GET against a
//                                                server's scrape endpoint
//                                                (default path /metrics) —
//                                                curl-free for CI
//   ./build/examples/caddb_shell < script.cdb    scripted session
//
// Try:
//   caddb> schema <<<
//     ...   obj-type Box = attributes: W, H: integer;
//     ...     constraints: W > 0 and H > 0; end Box;
//     ...     >>>
//   caddb> create Box
//   @1
//   caddb> set @1 W i:3
//   caddb> check @1
//   error: ConstraintViolation: ...  (H is still unset)

#include <unistd.h>

#include <iostream>
#include <memory>
#include <string>

#include "analysis/disk_verifier.h"
#include "core/database.h"
#include "net/client.h"
#include "replication/follower.h"
#include "shell/dispatcher.h"

namespace {

int RunConnect(int argc, char** argv) {
  std::string host_port;
  caddb::net::ClientOptions options;
  caddb::net::RetryOptions retry;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--read-only") {
      options.role = caddb::net::SessionRole::kReadOnly;
    } else if (arg.rfind("--ns=", 0) == 0) {
      options.ns = arg.substr(5);
    } else if (arg.rfind("--retries=", 0) == 0) {
      // Attempts per command (and per connect), jittered-backoff between
      // them; 0 disables retrying entirely.
      try {
        uint64_t n = std::stoull(arg.substr(10));
        retry.max_attempts = n == 0 ? 1 : n;
      } catch (...) {
        std::cerr << "bad --retries value in '" << arg << "'\n";
        return 2;
      }
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      try {
        options.recv_timeout_ms = std::stoull(arg.substr(13));
      } catch (...) {
        std::cerr << "bad --timeout-ms value in '" << arg << "'\n";
        return 2;
      }
    } else if (host_port.empty() && !arg.empty() && arg[0] != '-') {
      host_port = arg;
    } else {
      std::cerr << "unknown --connect argument '" << arg << "'\n";
      return 2;
    }
  }
  if (host_port.empty()) {
    std::cerr << "use: caddb_shell --connect host:port [--read-only] "
                 "[--ns=<label>] [--retries=N] [--timeout-ms=N]\n";
    return 2;
  }
  auto split = caddb::net::SplitHostPort(host_port);
  if (!split.ok()) {
    std::cerr << split.status().ToString() << "\n";
    return 2;
  }
  auto client = caddb::net::RetryingClient::Connect(split->first,
                                                    split->second, options,
                                                    retry);
  if (!client.ok()) {
    std::cerr << "connect: " << client.status().ToString() << "\n";
    return 2;
  }
  const bool interactive = isatty(0) != 0;
  if (interactive && (*client)->client() != nullptr) {
    std::cout << (*client)->client()->banner() << " — "
              << ((*client)->client()->writable() ? "writable" : "read-only")
              << " session; 'quit' exits.\n";
  }
  size_t errors = 0;
  std::string line;
  while (true) {
    if (interactive) std::cout << "caddb> ";
    if (!std::getline(std::cin, line)) break;
    std::string output;
    bool command_error = false;
    // Sheds, timeouts and lost connections are retried (with reconnect)
    // inside the client, up to --retries attempts.
    caddb::Status s = (*client)->Execute(line, &output, &command_error);
    if (!s.ok()) {
      std::cerr << "error: " << s.ToString() << "\n";
      ++errors;
      return 2;
    }
    std::cout << output;
    if (command_error) ++errors;
    if (line == "quit" || line == "exit") break;
  }
  (*client)->Close();
  return errors == 0 ? 0 : 1;
}

int RunScrape(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "use: caddb_shell --scrape host:port [path]\n";
    return 2;
  }
  auto split = caddb::net::SplitHostPort(argv[2]);
  if (!split.ok()) {
    std::cerr << split.status().ToString() << "\n";
    return 2;
  }
  const std::string path = argc > 3 ? argv[3] : "/metrics";
  auto body =
      caddb::net::Client::HttpGet(split->first, split->second, path);
  if (!body.ok()) {
    std::cerr << "scrape: " << body.status().ToString() << "\n";
    return 2;
  }
  std::cout << *body;
  return 0;
}

int RunOfflineCheck(int argc, char** argv) {
  std::string dir;
  caddb::analysis::DiskVerifyOptions options;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--fix") {
      options.fix = true;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--format=text") {
      json = false;
    } else if (dir.empty() && !arg.empty() && arg[0] != '-') {
      dir = arg;
    } else {
      std::cerr << "unknown --check argument '" << arg << "'\n";
      return 2;
    }
  }
  if (dir.empty()) {
    std::cerr << "use: caddb_shell --check <dir> [--fix] [--format=json]\n";
    return 2;
  }
  caddb::Result<caddb::analysis::DiskVerifyReport> report =
      caddb::analysis::VerifyDiskArtifacts(dir, options);
  if (!report.ok()) {
    std::cerr << "check disk: " << report.status().ToString() << "\n";
    return 2;
  }
  if (json) {
    std::cout << report->RenderJson() << "\n";
  } else {
    std::cout << report->RenderText();
  }
  // After an applied fix the post-fix state is what the operator is left
  // with; otherwise the findings themselves decide.
  bool clean = report->fix_applied ? !report->post_fix.HasErrors()
                                   : report->Clean();
  return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--check") {
    return RunOfflineCheck(argc, argv);
  }
  if (argc > 1 && std::string(argv[1]) == "--connect") {
    return RunConnect(argc, argv);
  }
  if (argc > 1 && std::string(argv[1]) == "--scrape") {
    return RunScrape(argc, argv);
  }
  caddb::Database memory_db;
  std::unique_ptr<caddb::Database> durable_db;
  std::unique_ptr<caddb::replication::Follower> follower;
  caddb::Database* db = &memory_db;
  std::string dir;
  bool follow = false;
  if (argc > 2 && std::string(argv[1]) == "--follow") {
    follow = true;
    dir = argv[2];
  } else if (argc > 1) {
    dir = argv[1];
  }
  if (follow) {
    follower = std::make_unique<caddb::replication::Follower>(dir);
    // First catch-up before the prompt; an empty or unreachable replica
    // directory is fine — polling continues per `replica poll`.
    caddb::Result<caddb::replication::PollResult> first = follower->Poll();
    if (!first.ok()) {
      std::cerr << "initial poll: " << first.status().ToString() << "\n";
    }
    if (follower->db() != nullptr) db = follower->db();
  } else if (!dir.empty()) {
    auto opened = caddb::Database::Open(dir);
    if (!opened.ok()) {
      std::cerr << "cannot open database directory '" << dir
                << "': " << opened.status().ToString() << "\n"
                << "(diagnose without opening: caddb_shell --check " << dir
                << ")\n";
      return 2;
    }
    durable_db = std::move(*opened);
    db = durable_db.get();
  }
  caddb::shell::Dispatcher shell(db);
  if (follower != nullptr) shell.AttachFollower(follower.get());
  bool interactive = isatty(0) != 0;
  if (interactive) {
    std::cout << "caddb shell — complex & composite objects for CAD/CAM.\n"
                 "Commands are documented in src/shell/dispatcher.h; 'quit' "
                 "exits.\n";
    if (follow) {
      std::cout << "follower session: " << dir
                << " ('replica status' for lag, 'replica poll' to catch "
                   "up, 'replica promote' to take over)\n";
    } else if (db->durable()) {
      std::cout << "durable session: " << dir
                << " ('wal status' for the log, 'checkpoint' to truncate "
                   "it, 'ship <dir>' to replicate)\n";
    }
  }
  shell.Run(std::cin, std::cout, interactive);
  if (!follow && db->durable()) {
    caddb::Status closed = db->Close();
    if (!closed.ok()) {
      std::cerr << "close failed: " << closed.ToString() << "\n";
      return 2;
    }
  }
  return shell.error_count() == 0 ? 0 : 1;
}
