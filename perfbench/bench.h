#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "stats.h"
#include "workload/scenario.h"

namespace perfbench {

using caddb::Database;
using caddb::Result;
using caddb::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Inheritance-chain depth of every workload's hierarchy: a leaf read of A
/// resolves through this many transmitters.
constexpr int kDepth = 8;

/// One traffic mix. Percentages of the request stream sum to 100.
struct WorkloadSpec {
  std::string name;
  int sessions = 1;
  /// Chains of GenerateDeepHierarchy; session s owns chains c with
  /// c % sessions == s, so each session's expected values stay exact.
  int chains = 0;
  /// Steel structures of GenerateSteelYard (0: no steel yard).
  int structures = 0;
  int get_pct = 0;        // leaf get of the inherited A
  int set_root_pct = 0;   // set A on a chain root (invalidates inheritors)
  int set_local_pct = 0;  // set a node's own C<k>
  int expand_pct = 0;     // expand a steel structure
  /// 80% of chain picks fall on the first fifth of a session's chains.
  bool skewed = false;
  /// Requests each session sends before timing starts. They warm the
  /// caches and are the fixed prefix the determinism counts cover.
  int prefix_requests = 0;
  size_t resident_object_budget = 0;
  size_t buffer_pool_pages = 256;
};

/// The three workloads, or null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

enum class Op : uint8_t { kGet, kSetRoot, kSetLocal, kExpand };
inline bool IsWrite(Op op) { return op == Op::kSetRoot || op == Op::kSetLocal; }

struct Request {
  uint64_t id = 0;  // (session + 1) << 32 | sequence number
  Op op = Op::kGet;
  int chain = -1;
  int level = 0;       // kSetLocal: which C<level>
  int structure = -1;  // kExpand
  uint64_t target = 0;
  std::string attr;
  int64_t value = 0;
  std::string line;
};

struct Population {
  caddb::workload::Hierarchy hier;
  caddb::workload::SteelYard yard;
  /// `expand @<structure>` output per structure, rendered before serving.
  std::vector<std::string> expand_expected;
};

/// Builds the workload's objects into `db`. Deterministic per seed.
Status Populate(Database* db, const WorkloadSpec& spec, uint32_t seed,
                Population* pop);

/// One session's seeded request stream.
class Stream {
 public:
  Stream(const WorkloadSpec& spec, const Population& pop, uint32_t seed,
         int session);
  Request Next();

 private:
  int PickChain();

  const WorkloadSpec& spec_;
  const Population& pop_;
  std::mt19937_64 rng_;
  std::vector<int> chains_;
  uint64_t session_tag_;
  uint64_t seq_ = 0;
};

/// Expected values of everything the workload writes. Sessions own
/// disjoint chains, so concurrent sessions touch disjoint entries.
class Oracle {
 public:
  explicit Oracle(const Population& pop);
  /// True when `output` is the correct response to `r`; a correct write
  /// is recorded as the new expected value.
  bool Accept(const Request& r, const std::string& output);
  /// Records a write acknowledged outside the wire (layer replay).
  void Apply(const Request& r);
  /// Reads every chain's leaf A and every written C<k> from `db`; returns
  /// the number of wrong values (and counts reads in `*reads`).
  uint64_t VerifyDatabase(Database* db, uint64_t* reads) const;

 private:
  std::string Expected(const Request& r) const;

  const Population& pop_;
  std::vector<int64_t> root_;                   // per chain
  std::vector<std::map<int, int64_t>> local_;   // per chain: level -> C
};

/// Durability options every workload opens with.
caddb::wal::DurabilityOptions DurabilityFor(const WorkloadSpec& spec);

/// A populated database served over the wire, with connected clients.
struct Instance {
  std::string dir;
  Population pop;
  std::unique_ptr<Database> db;
  std::unique_ptr<caddb::net::Server> server;
  std::vector<std::unique_ptr<caddb::net::Client>> clients;
  double load_s = 0;   // open an empty directory and populate it
  double open_s = 0;   // Database::Open of the populated directory
  double total_s = 0;  // load + open + server start + connect
  void Teardown();
};

Result<std::unique_ptr<Instance>> SetUp(const WorkloadSpec& spec,
                                        uint32_t seed, const std::string& dir);

/// One completed request of a timed phase.
struct Sample {
  int64_t end_ns = 0;
  double us = 0;  // client send to response
  Op op = Op::kGet;
  bool traced = false;  // a span was recorded for it
};

/// What the sessions measured in one phase.
struct PhaseResult {
  int64_t start_ns = 0;
  double seconds = 0;
  std::vector<Sample> samples;
  uint64_t reads() const;
  uint64_t writes() const;
};

/// Counter snapshot taken while every session is parked between phases.
struct Counters {
  caddb::wal::WalStats wal;
  caddb::storage::BufferPoolStats pool;
  uint64_t inherit_hits = 0, inherit_misses = 0, resolutions = 0,
           invalidations = 0;
  uint64_t net_requests = 0, net_sheds = 0, net_bytes = 0;
  uint64_t disk_bytes = 0;
  size_t live_objects = 0;
  size_t data_pages = 0;
};

struct WireResult {
  Counters after_prefix;  // the determinism snapshot
  uint64_t prefix_writes = 0;
  uint64_t stream_hash = kFnvOffset;  // over every session's prefix lines
  std::vector<PhaseResult> phases;
  Counters at_end;
  uint64_t attempted = 0, failed = 0;
  /// A traced run's client-side spans and the requests they timed.
  std::vector<Span> spans;
  std::vector<Request> traced;
};

/// Runs the prefix, then one timed phase per entry of `phase_seconds`.
/// `at_gate(p)` runs while every session is parked before phase p (gate 0
/// ends the prefix). With `trace`, every other request of each session
/// records a span, so traced and untraced requests share the host's
/// conditions and their difference is the tracing overhead.
WireResult RunWire(Instance* inst, const WorkloadSpec& spec, uint32_t seed,
                   Oracle* oracle, const std::vector<double>& phase_seconds,
                   bool trace,
                   const std::function<void(size_t)>& at_gate);

Counters Snapshot(Instance* inst);

/// Replays `requests` (under the server's exec lock) once per layer,
/// timing each layer's public entry point; appends spans, returns
/// per-layer metrics by name. Writes the scratch log under `scratch_dir`.
/// Every checked result counts in `*checked`, every wrong one in `*failed`.
std::map<std::string, double> ReplayLayers(Instance* inst, Oracle* oracle,
                                           const std::vector<Request>& requests,
                                           const std::string& scratch_dir,
                                           std::vector<Span>* spans,
                                           uint64_t* checked, uint64_t* failed);

// ---- host record ----
struct CpuTimes {
  uint64_t total = 0, steal = 0;
};
CpuTimes ReadCpuTimes();
std::string FilesystemType(const std::string& path);
/// Confines every thread of the process, and every thread it starts later,
/// to one CPU: the one of the CPUs the process started with that runs a
/// short fixed probe fastest (`*probe_us`, in CPU order). On a shared VM a
/// request that crosses vCPUs waits for the hypervisor to wake a halted
/// one, which swings latency by 2x from run to run, and a vCPU's speed
/// drops by up to 1.7x for seconds at a time, so a run calls this again
/// between sub-phases. Returns the CPU, or -1 when affinity is unavailable;
/// `*allowed_cpus` is how many CPUs the process started with.
int PinToFastestCpu(int* allowed_cpus, std::vector<double>* probe_us);
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
