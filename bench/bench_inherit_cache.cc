// Ablation: inheritance-resolution caching under deep transmitter chains and
// mixed read/write workloads — no cache vs. fine-grained dependency
// validation.
//
// The paper's immediacy guarantee ("any update of the original data is
// instantly visible", section 2) makes inherited reads the hot path of every
// composite-object workload, and a resolution cache is only admissible if it
// never serves a stale view. Fine-grained entries depend only on the objects
// of their own transmitter chain, so writes to unrelated chains evict
// nothing.
//
// Fixture: 64 independent chains of depth 2/4/8 (distinct types per level;
// the type system forbids same-type cycles). Workloads pick a chain with a
// deterministic LCG: read-only (leaf reads), mixed ~90/10 (every 10th
// operation updates a root), write-heavy (every 2nd operation updates a
// root). The hit rate is reported as a counter.
//
// Expected shape: read-only — the cache collapses the O(depth) walk to one
// probe; mixed 90/10 — the cache stays near its read-only throughput;
// write-heavy — caching cannot pay off, measuring how close the probe
// overhead is to zero.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "ddl/parser.h"
#include "inherit/inheritance.h"
#include "store/store.h"

namespace {

void Abort(const caddb::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T Unwrap(caddb::Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// L0 (root, owns A) --R1{A}--> L1 --R2{A}--> ... --Rdepth{A}--> Ldepth.
std::string ChainSchema(int depth) {
  std::string ddl = "obj-type L0 = attributes: A, B: integer; end L0;\n";
  for (int i = 1; i <= depth; ++i) {
    const std::string prev = "L" + std::to_string(i - 1);
    const std::string cur = "L" + std::to_string(i);
    const std::string rel = "R" + std::to_string(i);
    ddl += "inher-rel-type " + rel + " =\n  transmitter: object-of-type " +
           prev + ";\n  inheritor: object;\n  inheriting: A;\nend " + rel +
           ";\n";
    ddl += "obj-type " + cur + " = inheritor-in: " + rel + "; attributes: C" +
           std::to_string(i) + ": integer; end " + cur + ";\n";
  }
  return ddl;
}

/// Raw catalog + store + manager (no NotificationCenter) so the measurement
/// isolates resolution/invalidation cost from change-log growth.
struct ChainFleet {
  caddb::Catalog catalog;
  caddb::ObjectStore store{&catalog};
  caddb::InheritanceManager manager{&store, nullptr};
  std::vector<caddb::Surrogate> roots;
  std::vector<caddb::Surrogate> leaves;

  ChainFleet(int depth, int n_chains) {
    std::vector<std::string> warnings;
    Abort(caddb::ddl::Parser::ParseSchema(ChainSchema(depth), &catalog,
                                          &warnings));
    for (int c = 0; c < n_chains; ++c) {
      caddb::Surrogate node = Unwrap(store.CreateObject("L0"));
      Abort(manager.SetAttribute(node, "A", caddb::Value::Int(c)));
      roots.push_back(node);
      for (int i = 1; i <= depth; ++i) {
        caddb::Surrogate next =
            Unwrap(store.CreateObject("L" + std::to_string(i)));
        Unwrap(manager.Bind(next, node, "R" + std::to_string(i)));
        node = next;
      }
      leaves.push_back(node);
    }
  }
};

constexpr int kChains = 64;

/// args: (chain depth, cache on as 0/1). `write_period` = 0 means
/// read-only; N means every Nth operation is a root update.
void RunWorkload(benchmark::State& state, int write_period) {
  const int depth = static_cast<int>(state.range(0));
  ChainFleet fleet(depth, kChains);
  fleet.manager.EnableCache(state.range(1) != 0);

  uint64_t rng = 0x9e3779b97f4a7c15ull;
  int64_t tick = 0;
  size_t op = 0;
  for (auto _ : state) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const size_t chain = (rng >> 33) % kChains;
    if (write_period > 0 && ++op % write_period == 0) {
      Abort(fleet.manager.SetAttribute(fleet.roots[chain], "A",
                                       caddb::Value::Int(++tick)));
    } else {
      benchmark::DoNotOptimize(
          Unwrap(fleet.manager.GetAttribute(fleet.leaves[chain], "A"))
              .is_null());
    }
  }
  state.SetItemsProcessed(state.iterations());
  const double probes = static_cast<double>(fleet.manager.cache_hits() +
                                            fleet.manager.cache_misses());
  state.counters["hit_rate"] =
      probes == 0.0
          ? 0.0
          : static_cast<double>(fleet.manager.cache_hits()) / probes;
}

void BM_DeepChain_ReadOnly(benchmark::State& state) { RunWorkload(state, 0); }
void BM_DeepChain_Mixed90_10(benchmark::State& state) {
  RunWorkload(state, 10);
}
void BM_DeepChain_WriteHeavy(benchmark::State& state) {
  RunWorkload(state, 2);
}

BENCHMARK(BM_DeepChain_ReadOnly)
    ->ArgNames({"depth", "cache"})
    ->ArgsProduct({{2, 4, 8}, {0, 1}});
BENCHMARK(BM_DeepChain_Mixed90_10)
    ->ArgNames({"depth", "cache"})
    ->ArgsProduct({{2, 4, 8}, {0, 1}});
BENCHMARK(BM_DeepChain_WriteHeavy)
    ->ArgNames({"depth", "cache"})
    ->ArgsProduct({{2, 4, 8}, {0, 1}});

}  // namespace
