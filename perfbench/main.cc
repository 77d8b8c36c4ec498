// caddb_perfbench: one run of one workload over the wire.
//
//   caddb_perfbench --workload browse|edit|page --seed N --seconds S
//                   --trace 0|1 [--data-dir DIR] [--out-dir DIR]
//                   [--git-sha SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// seeded stream and prints the per-layer metrics, the self-time table and
// the tracing overhead, and writes the spans to --out-dir. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "bench.h"
#include "replication/follower.h"
#include "replication/shipper.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint32_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string data_dir = ".bench_build/perfbench-data";
  std::string out_dir = ".bench_build/perfbench-out";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 10));
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One shipment from `primary` into a fresh replica directory and one
/// follower poll, then a read-back of every value the oracle holds.
struct Catchup {
  double ship_s = 0, poll_s = 0, total_s = 0, bytes = 0;
  uint64_t reads = 0, wrong = 0;
};

Catchup RunCatchup(Database* primary, const Oracle& oracle,
                   const std::string& replica_dir) {
  Catchup c;
  const int64_t t0 = NowNs();
  caddb::replication::Shipper shipper(primary, replica_dir);
  Result<caddb::replication::ShipmentReport> shipped = shipper.ShipNow();
  const int64_t t1 = NowNs();
  caddb::replication::Follower follower(replica_dir);
  Result<caddb::replication::PollResult> polled = follower.Poll();
  const int64_t t2 = NowNs();
  c.ship_s = (t1 - t0) / 1e9;
  c.poll_s = (t2 - t1) / 1e9;
  c.total_s = (t2 - t0) / 1e9;
  if (!shipped.ok() || !polled.ok() || follower.db() == nullptr) {
    std::fprintf(stderr, "catch-up failed: %s %s\n",
                 shipped.status().ToString().c_str(),
                 polled.status().ToString().c_str());
    c.reads = c.wrong = 1;
    return c;
  }
  c.bytes = static_cast<double>(shipped->bytes_copied);
  c.wrong = oracle.VerifyDatabase(follower.db(), &c.reads);
  return c;
}

/// Database::Open of `dir` with the workload's options, a read-back of
/// every value the oracle holds and `catchups` catch-ups of fresh
/// followers (in `replica_dir`.0, .1, ...) from the reopened database.
struct Restart {
  double seconds = 0;
  uint64_t records_applied = 0, reads = 0, wrong = 0;
  std::vector<Catchup> catchups;
};

Restart RunRestart(const std::string& dir, const WorkloadSpec& spec,
                   const Oracle& oracle, const std::string& replica_dir,
                   int catchups) {
  Restart r;
  const int64_t t0 = NowNs();
  Result<std::unique_ptr<Database>> db =
      Database::Open(dir, DurabilityFor(spec));
  r.seconds = (NowNs() - t0) / 1e9;
  if (!db.ok()) {
    std::fprintf(stderr, "restart failed: %s\n",
                 db.status().ToString().c_str());
    r.reads = r.wrong = 1;
    return r;
  }
  r.records_applied = (*db)->recovery_report().records_applied;
  r.wrong = oracle.VerifyDatabase(db->get(), &r.reads);
  for (int i = 0; i < catchups; ++i) {
    r.catchups.push_back(RunCatchup(db->get(), oracle,
                                    replica_dir + "." + std::to_string(i)));
    r.reads += r.catchups.back().reads;
    r.wrong += r.catchups.back().wrong;
  }
  return r;
}

double Min(const std::vector<double>& values) {
  return Percentile(values, 0);
}

double MinOf(const std::vector<Restart>& reps, double Catchup::*field) {
  std::vector<double> values;
  for (const Restart& r : reps) {
    for (const Catchup& c : r.catchups) values.push_back(c.*field);
  }
  return Min(values);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Set-ups per untraced run: at least kMinSetups, then more while their
/// total stays under kSetupSeconds, up to kMaxSetups; setup_s is their
/// median. Consecutive 0.05 s set-ups differ by up to half, so the fast
/// workloads take the median of fifteen; page's 4.5 s ones, of three.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 2.0;
/// Timed sub-phases per run; a restart and kCatchupsPerGate catch-ups run
/// in each pause before one.
constexpr int kSubPhases = 10;
constexpr int kCatchupsPerGate = 2;

enum class Kind { kAll, kRead, kWrite };

/// Latencies (us) of the phase's requests of `kind`, traced or not, that
/// ended in [from_ns, to_ns).
std::vector<double> Latencies(const PhaseResult& phase, Kind kind,
                              bool traced = false, int64_t from_ns = INT64_MIN,
                              int64_t to_ns = INT64_MAX) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (s.traced != traced) continue;
    if (s.end_ns < from_ns || s.end_ns >= to_ns) continue;
    if (kind == Kind::kRead && s.op != Op::kGet) continue;
    if (kind == Kind::kWrite && !IsWrite(s.op)) continue;
    out.push_back(s.us);
  }
  return out;
}

/// The rate and the medians a run reports are each the best value any
/// quarter second of the timed phase reached: requests per second
/// (`pct` < 0), or the `pct` percentile latency of the requests of `kind`
/// that ended in the window. Interference from the shared host (steal,
/// busy SMT siblings) only ever makes a window slower, and it comes and
/// goes within a run, so the best window repeats across runs better than
/// the run's average does (README.md has the measurements).
constexpr double kWindowSeconds = 0.25;

double BestWindow(const std::vector<PhaseResult>& phases, Kind kind,
                  double pct) {
  std::vector<double> values;
  for (const PhaseResult& phase : phases) {
    // A sub-phase shorter than a window (a run of under 2.5 s) is one.
    const double seconds = std::min(kWindowSeconds, phase.seconds);
    const int64_t width = static_cast<int64_t>(seconds * 1e9);
    const int64_t end =
        phase.start_ns + static_cast<int64_t>(phase.seconds * 1e9);
    for (int64_t from = phase.start_ns; from + width <= end; from += width) {
      const std::vector<double> l =
          Latencies(phase, kind, false, from, from + width);
      if (l.empty()) continue;
      values.push_back(pct < 0 ? l.size() / seconds : Percentile(l, pct));
    }
  }
  // No window saw a request of this kind: not a number, so the run is not
  // reported correct.
  if (values.empty()) return std::nan("");
  return Percentile(values, pct < 0 ? 100 : 0);
}

/// The same over every untraced request of the timed phase: requests per
/// second (`pct` < 0) or the `pct` percentile latency of the requests of
/// `kind`.
double WholeRun(const std::vector<PhaseResult>& phases, Kind kind,
                double pct) {
  std::vector<double> all;
  double seconds = 0;
  for (const PhaseResult& phase : phases) {
    const std::vector<double> l = Latencies(phase, kind);
    all.insert(all.end(), l.begin(), l.end());
    seconds += phase.seconds;
  }
  if (all.empty()) return std::nan("");
  return pct < 0 ? all.size() / seconds : Percentile(all, pct);
}

/// The rate and the medians a workload reports. With one session every
/// window runs the same kind of work, so a slow window is the host's doing
/// and the best window is the program's speed. With two, a window's speed
/// also depends on how the scheduler interleaves the sessions on the one
/// CPU: the best window is a lucky interleaving, and over ten runs `edit`'s
/// spread 0.16 to 0.17 against 0.11 to 0.13 for its whole-run values.
double Typical(const std::vector<PhaseResult>& phases,
               const WorkloadSpec& spec, Kind kind, double pct) {
  return spec.sessions == 1 ? BestWindow(phases, kind, pct)
                            : WholeRun(phases, kind, pct);
}

void PrintSelfTimeTable(const std::vector<Span>& spans) {
  struct Row {
    const char* name;
    std::vector<const char*> children;
  };
  const std::vector<Row> rows = {
      {"net.request", {"shell.execute"}},
      {"shell.execute", {"core.*"}},
      {"core.get", {"inherit.resolve"}},
      {"core.set", {"wal.append", "wal.sync"}},
      {"core.expand", {}},
      {"inherit.resolve", {}},
      {"storage.fetch", {}},
      {"store.decode", {}},
      {"wal.append", {}},
      {"wal.sync", {}},
      {"net.frame_encode", {}},
      {"net.frame_decode", {}},
  };
  std::printf("self-time table (p50 per call, us; self = p50 minus the "
              "p50 of the calls it makes for the same lines)\n");
  std::printf("  %-18s %9s %12s %12s\n", "span", "calls", "p50_us",
              "self_p50_us");
  for (const Row& row : rows) {
    const std::vector<double> d = Durations(spans, row.name, 1e3);
    if (d.empty()) continue;
    std::vector<double> child_p50s;
    for (const char* child : row.children) {
      if (std::string(child) == "core.*") {
        // The shell's child is whichever Database call the line made.
        std::vector<double> all;
        for (const char* n : {"core.get", "core.set", "core.expand"}) {
          const std::vector<double> part = Durations(spans, n, 1e3);
          all.insert(all.end(), part.begin(), part.end());
        }
        child_p50s.push_back(Median(all));
      } else {
        child_p50s.push_back(Median(Durations(spans, child, 1e3)));
      }
    }
    const double p50 = Median(d);
    std::printf("  %-18s %9zu %12.3f %12.3f\n", row.name, d.size(), p50,
                SelfP50(p50, child_p50s));
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                int64_t epoch_ns) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans) {
    out << "{\"span\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << (s.start_ns - epoch_ns)
        << ",\"end_ns\":" << (s.end_ns - epoch_ns) << "}\n";
  }
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  int nproc = 0;
  std::vector<double> probe_us;
  const int pinned_cpu = PinToFastestCpu(&nproc, &probe_us);
  const int64_t epoch_ns = NowNs();
  const CpuTimes cpu_start = ReadCpuTimes();
  const std::string run_dir =
      (fs::path(args.data_dir) / (args.workload + "-" +
                                  std::to_string(args.seed) + "-" +
                                  std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Set-up: populate, open, start the server, connect. The untraced run
  // sets up several times and reports the median; the last instance
  // serves.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<Instance> inst;
  for (int i = 0;; ++i) {
    const std::string dir = run_dir + "/db" + std::to_string(i);
    Result<std::unique_ptr<Instance>> made = SetUp(*spec, args.seed, dir);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back((*made)->total_s);
    setup_total_s += (*made)->total_s;
    const bool more =
        !args.trace &&
        (i + 1 < kMinSetups ||
         (i + 1 < kMaxSetups && setup_total_s < kSetupSeconds));
    if (!more) {
      inst = std::move(*made);
      break;
    }
    (*made)->Teardown();
    fs::remove_all(dir, ec);
  }
  const std::string data_fs = FilesystemType(inst->dir);

  Oracle oracle(inst->pop);
  // Restart and catch-up are measured on a snapshot of the directory
  // taken when the fixed prefix ends, so the log they replay and ship is
  // the same for every run of a seed. One restart and kCatchupsPerGate
  // catch-ups run at each pause between the timed sub-phases, spread over
  // the run like the wire windows, and the fastest of each is reported.
  const std::string snapshot = run_dir + "/prefix-snapshot";
  std::unique_ptr<Oracle> prefix_oracle;
  std::vector<Restart> reps;
  std::vector<int> gate_cpus;
  const auto at_gate = [&](size_t gate) {
    // Sessions are parked: move every thread to the CPU that is fastest
    // now. A vCPU can stay slow for a whole sub-phase; moving at every gate
    // gives each run several CPUs' quiet spells to find its best windows in.
    int allowed = 0;
    std::vector<double> probes;
    gate_cpus.push_back(PinToFastestCpu(&allowed, &probes));
    if (gate == 0) {
      std::unique_lock<std::mutex> pause = inst->server->PauseExecution();
      fs::copy(inst->dir, snapshot, fs::copy_options::recursive, ec);
      prefix_oracle = std::make_unique<Oracle>(oracle);
    }
    const std::string rep_dir = run_dir + "/rep" + std::to_string(gate);
    fs::create_directories(rep_dir, ec);
    if (!ec) {
      fs::copy(snapshot, rep_dir + "/primary", fs::copy_options::recursive,
               ec);
    }
    if (ec) {
      std::fprintf(stderr, "snapshot copy failed: %s\n", ec.message().c_str());
    }
    reps.push_back(RunRestart(rep_dir + "/primary", *spec, *prefix_oracle,
                              rep_dir + "/replica", kCatchupsPerGate));
    fs::remove_all(rep_dir, ec);
  };
  const std::vector<double> phase_seconds(kSubPhases,
                                          args.seconds / kSubPhases);
  WireResult wire = RunWire(inst.get(), *spec, args.seed, &oracle,
                            phase_seconds, args.trace, at_gate);
  uint64_t attempted = wire.attempted;
  uint64_t failed = wire.failed;
  std::vector<double> restart_s;
  for (const Restart& r : reps) {
    attempted += r.reads;
    failed += r.wrong;
    restart_s.push_back(r.seconds);
  }

  std::map<std::string, double> layer;
  std::vector<Span> spans = wire.spans;
  if (args.trace) {
    // Replay at most 5000 of the traced lines: enough for stable medians.
    std::vector<Request> lines = wire.traced;
    if (lines.size() > 5000) lines.resize(5000);
    layer = ReplayLayers(inst.get(), &oracle, lines, run_dir + "/scratch-wal",
                         &spans, &attempted, &failed);
  }

  // The run's full history: the follower must serve, and a restart must
  // recover, every value acknowledged up to the end. Timed but not gated:
  // both grow with the number of writes the run managed.
  Catchup final_catchup;
  {
    std::unique_lock<std::mutex> pause = inst->server->PauseExecution();
    final_catchup =
        RunCatchup(inst->db.get(), oracle, run_dir + "/replica-final");
  }
  const caddb::net::ServerStats server_stats = inst->server->stats();
  inst->Teardown();
  const Restart final_restart = RunRestart(inst->dir, *spec, oracle, "", 0);
  attempted += final_catchup.reads + final_restart.reads;
  failed += final_catchup.wrong + final_restart.wrong;
  const CpuTimes cpu_end = ReadCpuTimes();

  // ---- end-to-end metrics (printed by every run; untraced requests) ----
  const std::vector<PhaseResult>& timed = wire.phases;
  const Counters& prefix = wire.after_prefix;
  std::vector<Metric> e2e = {
      {"ops_per_s", Typical(timed, *spec, Kind::kAll, -1), "1/s"},
      {"latency_p50_us", Typical(timed, *spec, Kind::kAll, 50), "us"},
      // The tail is taken over the whole run on every workload: a window's
      // p90 rests on a few hundred requests, and the best of ~100 such
      // noisy values swung twice as much between runs as the run's p90.
      {"latency_p90_us", WholeRun(timed, Kind::kAll, 90), "us"},
      {"read_p50_us", Typical(timed, *spec, Kind::kRead, 50), "us"},
      {"setup_s", Median(setup_s), "s"},
      {"disk_bytes_per_object",
       Ratio(prefix.disk_bytes, prefix.live_objects), "B"},
      {"wal_bytes_per_write",
       Ratio(prefix.wal.bytes_appended, wire.prefix_writes), "B"},
      {"catchup_s", MinOf(reps, &Catchup::total_s), "s"},
  };
  const double fail_ratio = Ratio(failed, attempted);

  // ---- per-layer metrics (traced run) ----
  std::vector<Metric> per_layer;
  double untraced_p50 = 0, traced_p50 = 0;
  if (args.trace) {
    const Counters& end = wire.at_end;
    uint64_t reads = 0, writes = 0;
    for (const PhaseResult& p : wire.phases) {
      reads += p.reads();
      writes += p.writes();
    }
    std::vector<double> untraced, traced;
    for (const PhaseResult& p : wire.phases) {
      const std::vector<double> u = Latencies(p, Kind::kAll, false);
      const std::vector<double> t = Latencies(p, Kind::kAll, true);
      untraced.insert(untraced.end(), u.begin(), u.end());
      traced.insert(traced.end(), t.begin(), t.end());
    }
    untraced_p50 = Percentile(untraced, 50);
    traced_p50 = Percentile(traced, 50);
    const uint64_t pool_hits = end.pool.hits - prefix.pool.hits;
    const uint64_t pool_misses = end.pool.misses - prefix.pool.misses;
    const uint64_t cache_hits = end.inherit_hits - prefix.inherit_hits;
    const uint64_t cache_misses = end.inherit_misses - prefix.inherit_misses;
    per_layer = {
        {"net.self_p50_us",
         SelfP50(untraced_p50, {layer["shell.execute_p50_us"]}), "us"},
        {"net.frame_encode_ns", layer["net.frame_encode_ns"], "ns"},
        {"net.frame_decode_ns", layer["net.frame_decode_ns"], "ns"},
        {"net.sheds", static_cast<double>(end.net_sheds), "count"},
        {"net.bytes_per_request",
         Ratio(end.net_bytes - prefix.net_bytes,
               end.net_requests - prefix.net_requests),
         "B"},
        {"shell.execute_p50_us", layer["shell.execute_p50_us"], "us"},
        {"shell.self_p50_us", layer["shell.self_p50_us"], "us"},
        {"core.get_p50_us", layer["core.get_p50_us"], "us"},
        {"core.set_p50_us", layer["core.set_p50_us"], "us"},
        {"core.self_p50_us", layer["core.self_p50_us"], "us"},
        {"inherit.resolve_p50_us", layer["inherit.resolve_p50_us"], "us"},
        {"inherit.cache_hit_ratio",
         Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
        {"inherit.resolutions_per_read",
         Ratio(end.resolutions - prefix.resolutions, reads), "count"},
        {"inherit.invalidations_per_write",
         Ratio(end.invalidations - prefix.invalidations, writes), "count"},
        {"store.fault_ins_per_read", layer["store.fault_ins_per_read"],
         "count"},
        {"store.decode_p50_ns", layer["store.decode_p50_ns"], "ns"},
        {"storage.pool_hit_ratio",
         Ratio(pool_hits, pool_hits + pool_misses), "ratio"},
        {"storage.pages_read_per_read", Ratio(pool_misses, reads), "count"},
        {"storage.evictions",
         static_cast<double>(end.pool.evictions - prefix.pool.evictions),
         "count"},
        {"storage.fetch_p50_ns", layer["storage.fetch_p50_ns"], "ns"},
        {"wal.appends_per_write",
         Ratio(prefix.wal.records_appended, wire.prefix_writes), "count"},
        {"wal.commits_per_fsync",
         Ratio(end.wal.commits - prefix.wal.commits,
               end.wal.fsyncs - prefix.wal.fsyncs),
         "count"},
        {"wal.append_p50_ns", layer["wal.append_p50_ns"], "ns"},
        {"wal.sync_p50_us", layer["wal.sync_p50_us"], "us"},
        {"wal.restart_s", Min(restart_s), "s"},
        {"wal.replay_us_per_record",
         Ratio(Min(restart_s) * 1e6, reps[0].records_applied), "us"},
        {"replication.ship_s", MinOf(reps, &Catchup::ship_s), "s"},
        {"replication.ship_bytes", MinOf(reps, &Catchup::bytes), "B"},
        {"replication.poll_s", MinOf(reps, &Catchup::poll_s), "s"},
        {"setup.load_s", inst->load_s, "s"},
        {"setup.open_s", inst->open_s, "s"},
        {"trace.overhead_us", traced_p50 - untraced_p50, "us"},
    };
  }

  // ---- human-readable report ----
  std::string probes;
  for (double us : probe_us) {
    probes += (probes.empty() ? "" : ", ") + std::to_string(us);
  }
  std::string gate_list;
  for (int cpu : gate_cpus) {
    gate_list += (gate_list.empty() ? "" : ", ") + std::to_string(cpu);
  }
  const double steal_share =
      Ratio(cpu_end.steal - cpu_start.steal, cpu_end.total - cpu_start.total);
  std::printf(
      "host {\"nproc\": %d, \"pinned_cpu\": %d, \"steal_share\": %.4f, "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"data_fs\": \"%s\", "
      "\"fsync\": \"no-op\", \"cpu_probe_us\": [%s], \"gate_cpus\": [%s]}\n",
      nproc, pinned_cpu, steal_share, PERFBENCH_BUILD_TYPE,
      args.git_sha.c_str(), data_fs.c_str(), probes.c_str(),
      gate_list.c_str());
  std::printf(
      "workload %s seed %u sessions %d objects %zu budget %zu pool_pages %zu "
      "(resident frames %zu, overcommits %llu) data_pages %zu\n",
      spec->name.c_str(), args.seed, spec->sessions, prefix.live_objects,
      spec->resident_object_budget, spec->buffer_pool_pages, prefix.pool.pages,
      static_cast<unsigned long long>(prefix.pool.overcommits),
      prefix.data_pages);
  std::printf(
      "determinism prefix: %d requests/session, stream_hash %016llx, "
      "wal_bytes %llu, wal_records %llu, writes %llu, disk_bytes %llu\n",
      spec->prefix_requests, static_cast<unsigned long long>(wire.stream_hash),
      static_cast<unsigned long long>(prefix.wal.bytes_appended),
      static_cast<unsigned long long>(prefix.wal.records_appended),
      static_cast<unsigned long long>(wire.prefix_writes),
      static_cast<unsigned long long>(prefix.disk_bytes));
  for (size_t p = 0; p < wire.phases.size(); ++p) {
    const PhaseResult& ph = wire.phases[p];
    std::printf(
        "phase %zu: %.3f s, %llu requests (%llu reads, %llu writes), "
        "untraced p50 %.2f us, p90 %.2f us, p99 %.2f us (ungated)\n",
        p, ph.seconds,
        static_cast<unsigned long long>(ph.samples.size()),
        static_cast<unsigned long long>(ph.reads()),
        static_cast<unsigned long long>(ph.writes()),
        Percentile(Latencies(ph, Kind::kAll), 50),
        Percentile(Latencies(ph, Kind::kAll), 90),
        Percentile(Latencies(ph, Kind::kAll), 99));
  }
  std::printf(
      "prefix state: catch-up ships %.0f bytes; restart replays %llu "
      "records\n",
      MinOf(reps, &Catchup::bytes),
      static_cast<unsigned long long>(reps[0].records_applied));
  std::printf("repetitions (s):");
  for (double v : setup_s) std::printf(" setup=%.4f", v);
  for (const Restart& r : reps) {
    std::printf(" restart=%.4f", r.seconds);
    for (const Catchup& c : r.catchups) {
      std::printf(" catchup=%.4f", c.total_s);
    }
  }
  std::printf("\n");
  std::printf(
      "end state (ungated): catch-up %.4f s, restart %.4f s replaying %llu "
      "records\n",
      final_catchup.total_s, final_restart.seconds,
      static_cast<unsigned long long>(final_restart.records_applied));
  std::printf("server: %llu requests, %llu sheds, %llu protocol errors\n",
              static_cast<unsigned long long>(server_stats.requests),
              static_cast<unsigned long long>(server_stats.sheds),
              static_cast<unsigned long long>(server_stats.protocol_errors));
  for (const Metric& m : e2e) {
    std::printf("metric %-24s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // Printed with the end-to-end metrics but gated nowhere: on `page` both
  // run the trim sweep, and their spread between runs reaches 0.26 to 0.3
  // (README.md), above any bound.
  std::printf("metric %-24s %.6g us (ungated)\n", "write_p50_us",
              Typical(timed, *spec, Kind::kWrite, 50));
  std::printf("metric %-24s %.6g s (ungated; wal.restart_s per layer)\n",
              "restart_s", Min(restart_s));
  std::printf("metric %-24s %.6g ratio (%llu of %llu)\n", "fail_ratio",
              fail_ratio, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (args.trace) {
    PrintSelfTimeTable(spans);
    for (const Metric& m : per_layer) {
      std::printf("layer  %-32s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("tracing overhead: traced p50 %.3f us - untraced p50 %.3f "
                "us = %.3f us\n",
                traced_p50, untraced_p50, traced_p50 - untraced_p50);
    fs::create_directories(args.out_dir, ec);
    const std::string span_path =
        (fs::path(args.out_dir) / ("spans-" + args.workload + "-seed" +
                                   std::to_string(args.seed) + ".jsonl"))
            .string();
    WriteSpans(span_path, spans, epoch_ns);
    std::printf("spans: %zu written to %s\n", spans.size(), span_path.c_str());
  }
  fs::remove_all(run_dir, ec);

  // ---- result line ----
  const std::vector<Metric>& reported = args.trace ? per_layer : e2e;
  bool finite = true;
  std::string json = "{";
  for (size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    double value = m.value;
    if (!std::isfinite(value)) {
      finite = false;
      value = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}";
  const bool correct = failed == 0 && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: caddb_perfbench --workload browse|edit|page --seed N "
                 "--seconds S --trace 0|1 [--data-dir DIR] [--out-dir DIR] "
                 "[--git-sha SHA]\n");
    return 2;
  }
  return perfbench::Run(args);
}
