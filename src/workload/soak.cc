#include "workload/soak.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/disk_verifier.h"
#include "baselines/copy_import.h"
#include "core/database.h"
#include "fault/failpoint.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "replication/daemon.h"
#include "replication/follower.h"
#include "replication/shipper.h"

namespace caddb {
namespace workload {

namespace {

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepUs(uint64_t us) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(us / 1000000);
  ts.tv_nsec = static_cast<long>((us % 1000000) * 1000);
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

/// FNV-1a, folding each op's identifying fields into the stream hash.
void HashMix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 1099511628211ULL;
  }
}

/// One timed entry of the fault schedule.
struct FaultEvent {
  uint64_t at_ms = 0;
  bool arm = true;
  std::string directive;  // "site spec..." for arm, "site" for disarm
};

Result<std::vector<FaultEvent>> ParseFaultSchedule(const std::string& text) {
  std::vector<FaultEvent> events;
  std::string entry;
  std::stringstream stream(text);
  while (std::getline(stream, entry, ';')) {
    std::stringstream tokens(entry);
    std::string at, verb;
    if (!(tokens >> at)) continue;  // empty entry
    if (at.size() < 2 || at[0] != '@') {
      return InvalidArgument("fault schedule entry '" + entry +
                             "': expected '@<ms> arm|disarm ...'");
    }
    FaultEvent event;
    try {
      event.at_ms = std::stoull(at.substr(1));
    } catch (...) {
      return InvalidArgument("fault schedule entry '" + entry +
                             "': bad time '" + at + "'");
    }
    if (!(tokens >> verb) || (verb != "arm" && verb != "disarm")) {
      return InvalidArgument("fault schedule entry '" + entry +
                             "': expected arm or disarm");
    }
    event.arm = verb == "arm";
    std::string rest, token;
    while (tokens >> token) {
      if (!rest.empty()) rest += ' ';
      rest += token;
    }
    if (rest.empty()) {
      return InvalidArgument("fault schedule entry '" + entry +
                             "': missing site");
    }
    event.directive = rest;
    events.push_back(std::move(event));
  }
  return events;
}

/// The safe default schedule: chaos on the wire and the replication
/// transport (both self-healing), bounded clean errors in storage, and
/// delay-only at the WAL fsync site — an injected *error* there poisons
/// the log for the process lifetime (fsyncgate semantics), which is a
/// crash-matrix scenario, not a soak scenario.
std::vector<FaultEvent> DefaultFaultSchedule(uint32_t seed,
                                             uint64_t duration_ms) {
  const uint64_t d = duration_ms == 0 ? 2000 : duration_ms;
  const std::string s = " --seed=" + std::to_string(seed);
  std::vector<FaultEvent> events;
  auto arm = [&](uint64_t at, const std::string& directive) {
    events.push_back(FaultEvent{at, true, directive});
  };
  auto disarm = [&](uint64_t at, const std::string& site) {
    events.push_back(FaultEvent{at, false, site});
  };
  arm(d / 20, std::string(fault::sites::kNetSessionWrite) +
                  " drop --p=0.05" + s);
  arm(d / 10, std::string(fault::sites::kNetSessionRead) +
                  " delay=2ms --p=0.05" + s);
  arm(d / 8, std::string(fault::sites::kNetClientRead) +
                 " delay=1ms --p=0.05" + s);
  arm(d / 5, std::string(fault::sites::kReplicationShip) + " drop --every=5");
  arm(d / 4, std::string(fault::sites::kWalAppendPreFsync) +
                 " delay=500us --p=0.2" + s);
  arm(d * 2 / 5, std::string(fault::sites::kStoragePageFlush) +
                     " error --times=2");
  arm(d / 2, std::string(fault::sites::kNetSessionWrite) +
                 " reset --p=0.02" + s);
  arm(d * 3 / 5, std::string(fault::sites::kReplicationShip) +
                     " truncate --every=7");
  disarm(d * 4 / 5, fault::sites::kNetSessionWrite);
  disarm(d * 4 / 5, fault::sites::kNetSessionRead);
  return events;
}

/// The copy-based mirror of DeepHierarchyDdl: every level declares A as an
/// *own* attribute (that is the baseline's defining flaw — the schema
/// duplicates the transmitted structure, and updates propagate only by
/// manual re-copy).
std::string MirrorHierarchyDdl(int depth) {
  std::string ddl = "obj-type MH0 = attributes: A, B: integer; end MH0;\n";
  for (int i = 1; i <= depth; ++i) {
    const std::string cur = "MH" + std::to_string(i);
    ddl += "obj-type " + cur + " = attributes: A, C" + std::to_string(i) +
           ": integer; end " + cur + ";\n";
  }
  return ddl;
}

/// Fires scheduled fault events at their times until stopped.
class FaultScheduler {
 public:
  FaultScheduler(std::vector<FaultEvent> events, obs::MetricsRegistry* metrics,
                 SoakReport* report, std::mutex* report_mu)
      : events_(std::move(events)),
        metrics_(metrics),
        report_(report),
        report_mu_(report_mu),
        start_ms_(NowMs()),
        thread_([this] { Loop(); }) {}

  ~FaultScheduler() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    for (const FaultEvent& event : events_) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        const uint64_t target = start_ms_ + event.at_ms;
        cv_.wait_for(lock,
                     std::chrono::milliseconds(
                         target > NowMs() ? target - NowMs() : 0),
                     [this] { return stop_; });
        if (stop_) return;
      }
      fault::FailpointRegistry& registry = fault::FailpointRegistry::Global();
      const Status s = event.arm
                           ? registry.ArmFromString(event.directive, metrics_)
                           : registry.Disarm(event.directive);
      std::lock_guard<std::mutex> lock(*report_mu_);
      if (s.ok() && event.arm) ++report_->faults_armed;
      if (!s.ok() && report_->first_violation.empty()) {
        report_->first_violation = "fault schedule: " + s.ToString();
        ++report_->invariant_violations;
      }
    }
  }

  std::vector<FaultEvent> events_;
  obs::MetricsRegistry* metrics_;
  SoakReport* report_;
  std::mutex* report_mu_;
  uint64_t start_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

std::string SoakReport::RenderText() const {
  std::ostringstream out;
  out << "soak " << (ok() ? "OK" : "FAILED") << "\n"
      << "  ops applied:             " << ops_applied << " (" << op_failures
      << " failed)\n"
      << "  wire reads:              " << reads << " (" << read_failures
      << " failed, " << retries << " retries, " << sheds << " sheds)\n"
      << "  checkpoints:             " << checkpoints << "\n"
      << "  invariant checks:        " << checks_run << "\n"
      << "  faults armed/fired:      " << faults_armed << "/" << faults_fired
      << "\n"
      << "  invariant violations:    " << invariant_violations << "\n"
      << "  differential mismatches: " << differential_mismatches << "\n"
      << "  follower:                "
      << (follower_quarantined
              ? "QUARANTINED"
              : (follower_caught_up ? "caught-up" : "LAGGING"))
      << "\n"
      << "  disk artifacts:          " << (disk_clean ? "clean" : "DIRTY")
      << "\n"
      << "  ops hash:                " << ops_hash << "\n";
  if (!first_violation.empty()) {
    out << "  first violation:         " << first_violation << "\n";
  }
  return out.str();
}

Result<SoakReport> RunSoak(const SoakOptions& options) {
  if (options.dir.empty()) return InvalidArgument("soak needs a directory");
  if (options.hierarchy_depth < 1 || options.hierarchy_chains < 1) {
    return InvalidArgument("soak hierarchy params out of range");
  }
  // Parse the schedule before any thread or file exists, so a bad
  // schedule is a clean InvalidArgument instead of a mid-teardown return.
  std::vector<FaultEvent> events;
  if (options.fault_schedule == "none") {
    // chaos-free run
  } else if (options.fault_schedule.empty()) {
    events = DefaultFaultSchedule(options.seed, options.duration_ms);
  } else {
    CADDB_ASSIGN_OR_RETURN(events,
                           ParseFaultSchedule(options.fault_schedule));
  }
  SoakReport report;
  std::mutex report_mu;

  // ---- The fleet ----
  const std::string primary_dir = options.dir + "/primary";
  const std::string replica_dir = options.dir + "/replica";
  CADDB_ASSIGN_OR_RETURN(std::unique_ptr<Database> primary,
                         Database::Open(primary_dir));

  std::unique_ptr<net::Server> server;
  if (options.with_server) {
    net::ServerOptions server_options;
    server_options.request_deadline_us = 2 * 1000 * 1000;
    CADDB_ASSIGN_OR_RETURN(server,
                           net::Server::Start(primary.get(), server_options));
  }
  // Serializes the mutator's direct Database calls against the server's
  // session readers; a no-op lock when no server runs.
  std::mutex no_server_mu;
  auto pause = [&]() {
    return server != nullptr ? server->PauseExecution()
                             : std::unique_lock<std::mutex>(no_server_mu);
  };

  std::unique_ptr<replication::Shipper> shipper;
  std::unique_ptr<replication::Follower> follower;
  std::unique_ptr<replication::AutoShipper> auto_shipper;
  std::unique_ptr<replication::AutoPoller> auto_poller;
  if (options.with_replication) {
    shipper = std::make_unique<replication::Shipper>(primary.get(),
                                                     replica_dir);
    follower = std::make_unique<replication::Follower>(replica_dir);
    replication::DaemonOptions cadence;
    cadence.interval_ms = 100;
    auto_shipper =
        std::make_unique<replication::AutoShipper>(shipper.get(), cadence);
    auto_poller =
        std::make_unique<replication::AutoPoller>(follower.get(), cadence);
  }

  // ---- The population (generated before the chaos starts) ----
  SteelYard yard;
  Hierarchy hierarchy;
  {
    auto lock = pause();
    CADDB_ASSIGN_OR_RETURN(yard,
                           GenerateSteelYardInto(primary.get(), options.steel));
    HierarchyParams hierarchy_params;
    hierarchy_params.seed = options.seed;
    hierarchy_params.depth = options.hierarchy_depth;
    hierarchy_params.chains = options.hierarchy_chains;
    CADDB_ASSIGN_OR_RETURN(
        hierarchy, GenerateDeepHierarchy(primary.get(), hierarchy_params));
  }

  // ---- The differential oracle: the paper's copy-based strawman ----
  // Mirrors every hierarchy root/A mutation with ImportByCopy + manual
  // refresh cascades; inherited reads on the primary must match the
  // baseline's copied values at every level.
  Database baseline;
  CADDB_RETURN_IF_ERROR(
      baseline.ExecuteDdl(MirrorHierarchyDdl(options.hierarchy_depth)));
  CopyImportManager copies(&baseline.inheritance());
  std::vector<std::vector<Surrogate>> mirror_chains;
  for (int c = 0; c < options.hierarchy_chains; ++c) {
    std::vector<Surrogate> chain;
    for (int k = 0; k <= options.hierarchy_depth; ++k) {
      CADDB_ASSIGN_OR_RETURN(
          Surrogate node, baseline.CreateObject("MH" + std::to_string(k)));
      chain.push_back(node);
    }
    CADDB_RETURN_IF_ERROR(baseline.Set(
        chain[0], "A", Value::Int(hierarchy.root_values[c])));
    for (int k = 1; k <= options.hierarchy_depth; ++k) {
      CADDB_RETURN_IF_ERROR(
          copies.ImportByCopy(chain[k], chain[k - 1], {"A"}).status());
    }
    mirror_chains.push_back(std::move(chain));
  }
  // The manual adaptation step the paper criticizes: after a source
  // update, every copy taken from it (transitively) must be re-copied, in
  // chain order.
  auto refresh_chain = [&](int c) -> Status {
    for (int k = 0; k < options.hierarchy_depth; ++k) {
      CADDB_RETURN_IF_ERROR(
          copies.RefreshAllFrom(mirror_chains[c][k]).status());
    }
    return OkStatus();
  };

  // ---- The wire reader ----
  std::atomic<bool> reader_stop{false};
  std::atomic<uint64_t> reads{0}, read_failures{0}, reader_retries{0},
      reader_sheds{0};
  std::thread reader;
  if (options.with_server) {
    const uint16_t port = server->port();
    reader = std::thread([&, port] {
      net::ClientOptions client_options;
      client_options.ns = "soak-reader";
      client_options.recv_timeout_ms = 1000;
      net::RetryOptions retry;
      retry.max_attempts = 5;
      retry.initial_backoff_us = 10 * 1000;
      retry.max_backoff_us = 200 * 1000;
      Result<std::unique_ptr<net::RetryingClient>> client =
          net::RetryingClient::Connect("127.0.0.1", port, client_options,
                                       retry);
      if (!client.ok()) {
        ++read_failures;
        return;
      }
      while (!reader_stop.load(std::memory_order_relaxed)) {
        std::string output;
        bool command_error = false;
        Status s = (*client)->Execute("stats", &output, &command_error);
        ++reads;
        if (!s.ok() || command_error) ++read_failures;
        SleepUs(2000);
      }
      reader_retries += (*client)->retries();
      reader_sheds += (*client)->sheds_seen();
      (*client)->Close();
    });
  }

  // ---- The fault schedule (parsed upfront) ----
  std::unique_ptr<FaultScheduler> scheduler;
  if (!events.empty()) {
    scheduler = std::make_unique<FaultScheduler>(
        std::move(events), &primary->observability()->metrics, &report,
        &report_mu);
  }

  // ---- The op stream (seeded; independent of fault timing) ----
  // Pre-generated in full and hashed upfront, so ops_hash is a pure
  // function of the seed even when the wall-clock budget cuts execution
  // short — two runs of the same seed are always comparing the same plan.
  struct Op {
    uint64_t kind;
    uint64_t chain;
    uint64_t value;
    uint64_t aux;  // secondary selector (interface, structure, level)
  };
  std::mt19937 rng(options.seed);
  std::vector<Op> plan;
  plan.reserve(options.ops);
  uint64_t ops_hash = 14695981039346656037ULL;
  for (uint64_t op = 0; op < options.ops; ++op) {
    Op entry{rng() % 4, rng() % hierarchy.chain_nodes.size(), rng() % 100000,
             rng()};
    HashMix(&ops_hash, entry.kind);
    HashMix(&ops_hash, entry.chain);
    HashMix(&ops_hash, entry.value);
    HashMix(&ops_hash, entry.aux);
    plan.push_back(entry);
  }
  report.ops_hash = ops_hash;
  const uint64_t start_ms = NowMs();
  const uint64_t pace_us =
      options.duration_ms > 0 && options.ops > 0
          ? options.duration_ms * 1000 / options.ops
          : 0;
  auto note_violation = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(report_mu);
    if (report.first_violation.empty()) report.first_violation = what;
  };

  for (uint64_t op = 0; op < plan.size(); ++op) {
    if (options.duration_ms > 0 &&
        NowMs() - start_ms > options.duration_ms) {
      break;
    }
    const uint64_t kind = plan[op].kind;
    const uint64_t chain_index = plan[op].chain;
    const uint64_t value = plan[op].value;
    const uint64_t aux = plan[op].aux;

    Status op_status = OkStatus();
    switch (kind) {
      case 0: {
        // Hierarchy root update + differential compare at every level.
        const std::vector<Surrogate>& chain =
            hierarchy.chain_nodes[chain_index];
        {
          auto lock = pause();
          op_status = primary->Set(chain[0], "A",
                                   Value::Int(static_cast<int64_t>(value)));
        }
        if (op_status.ok()) {
          op_status = baseline.Set(mirror_chains[chain_index][0], "A",
                                   Value::Int(static_cast<int64_t>(value)));
        }
        if (op_status.ok()) op_status = refresh_chain(chain_index);
        if (op_status.ok()) {
          auto lock = pause();
          for (int k = 0; k <= options.hierarchy_depth; ++k) {
            Result<Value> inherited = primary->Get(chain[k], "A");
            Result<Value> copied =
                baseline.Get(mirror_chains[chain_index][k], "A");
            if (!inherited.ok() || !copied.ok() ||
                inherited->AsInt() != copied->AsInt()) {
              std::lock_guard<std::mutex> report_lock(report_mu);
              ++report.differential_mismatches;
              if (report.first_violation.empty()) {
                report.first_violation =
                    "differential: chain " + std::to_string(chain_index) +
                    " level " + std::to_string(k) +
                    ": inherited != copied after root := " +
                    std::to_string(value);
              }
              break;
            }
          }
        }
        break;
      }
      case 1: {
        // Steel interface update. Heights start at 10 and widths at 5, so
        // any Length below 100*10*5 respects the girder constraint.
        Surrogate iface =
            yard.girder_interfaces[aux % yard.girder_interfaces.size()];
        auto lock = pause();
        op_status = primary->Set(
            iface, "Length",
            Value::Int(1 + static_cast<int64_t>(value % 4999)));
        break;
      }
      case 2: {
        if (yard.structures.empty()) break;
        Surrogate wcs = yard.structures[aux % yard.structures.size()];
        auto lock = pause();
        op_status = primary->Set(
            wcs, "Description",
            Value::String("rev-" + std::to_string(value)));
        break;
      }
      default: {
        // Mid-chain own-attribute update.
        const std::vector<Surrogate>& chain =
            hierarchy.chain_nodes[chain_index];
        const int level =
            1 + static_cast<int>(aux % options.hierarchy_depth);
        auto lock = pause();
        op_status = primary->Set(chain[level], "C" + std::to_string(level),
                                 Value::Int(static_cast<int64_t>(value)));
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(report_mu);
      if (op_status.ok()) {
        ++report.ops_applied;
      } else {
        ++report.op_failures;
        if (report.first_violation.empty()) {
          report.first_violation = "op " + std::to_string(op) + ": " +
                                   op_status.ToString();
        }
      }
    }

    if (options.check_every > 0 && (op + 1) % options.check_every == 0) {
      auto lock = pause();
      analysis::DiagnosticBag bag = primary->Check();
      std::lock_guard<std::mutex> report_lock(report_mu);
      ++report.checks_run;
      if (bag.HasErrors()) {
        ++report.invariant_violations;
        if (report.first_violation.empty()) {
          report.first_violation = "check at op " + std::to_string(op) +
                                   ": " + bag.RenderText();
        }
      }
    }
    if (options.checkpoint_every > 0 &&
        (op + 1) % options.checkpoint_every == 0) {
      Status s = primary->Checkpoint();
      std::lock_guard<std::mutex> lock(report_mu);
      // A failed checkpoint under injected storage faults is expected and
      // self-healing (the dirty set is restored for the next attempt).
      if (s.ok()) ++report.checkpoints;
    }
    if (pace_us > 0) SleepUs(pace_us);
  }

  // ---- Wind down: disarm, drain, heal, verify ----
  if (scheduler != nullptr) scheduler->Stop();
  {
    // Tally fires from this run's metrics registry, not the global site
    // table: the process-wide registry keeps counters across runs (by
    // design, for post-run tables), but the primary's metrics are fresh
    // per run, so the bound caddb_fault_fired_total{site=...} counters
    // are exactly this run's fires.
    std::lock_guard<std::mutex> lock(report_mu);
    const std::string prefix = "caddb_fault_fired_total{";
    for (const obs::CounterSample& counter :
         primary->observability()->metrics.Snapshot().counters) {
      if (counter.name.rfind(prefix, 0) == 0) {
        report.faults_fired += counter.value;
      }
    }
  }
  fault::FailpointRegistry::Global().DisarmAll();

  reader_stop.store(true, std::memory_order_relaxed);
  if (reader.joinable()) reader.join();
  report.reads = reads.load();
  report.read_failures = read_failures.load();
  report.retries = reader_retries.load();
  report.sheds = reader_sheds.load();

  if (options.with_replication) {
    auto_shipper->Stop();
    auto_poller->Stop();
    // Converge: one clean shipment, then poll until the follower has it.
    Result<replication::ShipmentReport> shipped = shipper->ShipNow();
    for (int attempt = 0; !shipped.ok() && attempt < 3; ++attempt) {
      shipped = shipper->ShipNow();
    }
    report.follower_caught_up = false;
    if (shipped.ok()) {
      for (int attempt = 0; attempt < 5; ++attempt) {
        Result<replication::PollResult> poll = follower->Poll();
        if (poll.ok() && poll->replay_lsn >= shipped->shipped_lsn) {
          report.follower_caught_up = true;
          break;
        }
        if (follower->state() == replication::FollowerState::kQuarantined) {
          break;
        }
        SleepUs(50 * 1000);
      }
    }
    report.follower_quarantined =
        follower->state() == replication::FollowerState::kQuarantined;
    if (report.follower_quarantined) {
      ++report.invariant_violations;
      note_violation("follower quarantined: " + follower->quarantine_code() +
                     " " + follower->quarantine_reason());
    } else if (!report.follower_caught_up) {
      ++report.invariant_violations;
      note_violation("follower failed to catch up after disarm");
    }
  }

  {
    auto lock = pause();
    analysis::DiagnosticBag bag = primary->Check();
    ++report.checks_run;
    if (bag.HasErrors()) {
      ++report.invariant_violations;
      note_violation("final check: " + bag.RenderText());
    }
  }
  if (server != nullptr) server->Shutdown();
  auto_poller.reset();
  auto_shipper.reset();
  follower.reset();
  shipper.reset();

  Status closed = primary->Close();
  if (!closed.ok()) {
    ++report.invariant_violations;
    note_violation("close: " + closed.ToString());
  }
  primary.reset();

  Result<analysis::DiskVerifyReport> disk =
      analysis::VerifyDiskArtifacts(primary_dir, analysis::DiskVerifyOptions{});
  report.disk_clean = disk.ok() && disk->Clean();
  if (!report.disk_clean) {
    ++report.invariant_violations;
    note_violation(disk.ok() ? "disk verifier: " + disk->diagnostics.RenderText()
                             : "disk verifier: " + disk.status().ToString());
  }
  return report;
}

}  // namespace workload
}  // namespace caddb
