// Scenario-factory soak driver: break the database on purpose, prove it
// holds.
//
//   ./build/examples/caddb_soak <dir> [--seed N] [--ops N] [--duration 60s]
//                               [--faults "<schedule>"|none] [--no-server]
//                               [--no-replication] [--quiet]
//
// One run opens a durable primary under <dir>/primary, serves it over TCP,
// ships it to a follower under <dir>/replica, populates it with the
// paper's scenarios (a steel yard, deep interface hierarchies), then
// applies a seeded mutation stream while a seeded fault schedule arms
// failpoints against the WAL, the storage layer, the replication transport
// and both ends of the wire. Oracles run the whole time:
//
//   - `caddb check` (schema + store invariants) during the run;
//   - a copy-based baseline database mirroring every hierarchy mutation
//     (differential: inherited reads must equal manually-refreshed copies);
//   - follower convergence (caught-up, never quarantined) at the end;
//   - the offline disk verifier after close.
//
// Exit 0: every oracle clean. Exit 1: a violation (the report names the
// first). Exit 2: the harness itself could not run. The op stream depends
// only on --seed, so a failure reproduces from its command line alone.
//
// The fault schedule grammar is `@<ms> arm <site> <spec>` / `@<ms> disarm
// <site>`, ';'-separated; see `fault arm` in src/shell/dispatcher.h for specs.
// The default schedule exercises socket drops/delays/resets, replication
// drop/truncate, WAL fsync delays, and bounded storage flush errors — all
// self-healing, so a clean run is the expected outcome.

#include <cstdint>
#include <iostream>
#include <string>

#include "fault/failpoint.h"
#include "workload/soak.h"

namespace {

bool ParseDurationMs(const std::string& text, uint64_t* out) {
  try {
    size_t end = 0;
    const uint64_t n = std::stoull(text, &end);
    const std::string unit = text.substr(end);
    if (unit == "s") {
      *out = n * 1000;
    } else if (unit == "ms" || unit.empty()) {
      *out = n;
    } else if (unit == "m") {
      *out = n * 60 * 1000;
    } else {
      return false;
    }
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  caddb::workload::SoakOptions options;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << name << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = value("--seed");
      if (v == nullptr) return 2;
      options.seed = static_cast<uint32_t>(std::stoul(v));
    } else if (arg == "--ops") {
      const char* v = value("--ops");
      if (v == nullptr) return 2;
      options.ops = std::stoull(v);
    } else if (arg == "--duration") {
      const char* v = value("--duration");
      if (v == nullptr) return 2;
      if (!ParseDurationMs(v, &options.duration_ms)) {
        std::cerr << "bad --duration '" << v << "' (use 500ms, 60s, 10m)\n";
        return 2;
      }
    } else if (arg == "--faults") {
      const char* v = value("--faults");
      if (v == nullptr) return 2;
      options.fault_schedule = v;
    } else if (arg == "--check-every") {
      const char* v = value("--check-every");
      if (v == nullptr) return 2;
      options.check_every = std::stoull(v);
    } else if (arg == "--no-server") {
      options.with_server = false;
    } else if (arg == "--no-replication") {
      options.with_replication = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] != '-' && options.dir.empty()) {
      options.dir = arg;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  if (options.dir.empty()) {
    std::cerr << "use: caddb_soak <dir> [--seed N] [--ops N] "
                 "[--duration 60s] [--faults \"<schedule>\"|none] "
                 "[--check-every N] [--no-server] [--no-replication] "
                 "[--quiet]\n";
    return 2;
  }

  caddb::Result<caddb::workload::SoakReport> report =
      caddb::workload::RunSoak(options);
  if (!report.ok()) {
    std::cerr << "soak harness failed: " << report.status().ToString()
              << "\n";
    return 2;
  }
  if (!quiet) {
    std::cout << report->RenderText();
    std::cout << "fault sites:\n";
    for (const caddb::fault::SiteInfo& site :
         caddb::fault::FailpointRegistry::Global().List()) {
      std::cout << "  " << site.name << " hits=" << site.hits
                << " fired=" << site.fired << "\n";
    }
  }
  return report->ok() ? 0 : 1;
}
