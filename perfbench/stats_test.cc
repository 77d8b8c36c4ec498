// Tests of the benchmark's own arithmetic. Run with
// `ctest --test-dir <build dir>` after building perfbench/.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void ExpectNear(double actual, double expected, const char* what) {
  if (std::fabs(actual - expected) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, actual,
                 expected);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::Percentile;

  // A constant-1 distribution: the bucketed histograms report p50=0 for
  // it; the raw-sample percentile must report 1 everywhere.
  const std::vector<double> ones(1000, 1.0);
  ExpectNear(Percentile(ones, 0), 1, "constant p0");
  ExpectNear(Percentile(ones, 50), 1, "constant p50");
  ExpectNear(Percentile(ones, 99), 1, "constant p99");

  // Interpolation matches Python's statistics.quantiles(method="inclusive").
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  ExpectNear(Percentile(ten, 50), 5.5, "1..10 p50");
  ExpectNear(Percentile(ten, 25), 3.25, "1..10 p25");
  ExpectNear(Percentile(ten, 90), 9.1, "1..10 p90");
  ExpectNear(Percentile(ten, 100), 10, "1..10 p100");
  ExpectNear(Percentile({}, 50), 0, "empty");
  ExpectNear(Percentile({42}, 99), 42, "single");
  ExpectNear(perfbench::Median({3, 1, 2}), 2, "median odd");

  // Self time: the layer's median minus each child's median.
  ExpectNear(perfbench::SelfP50(30, {4.5, 0.5}), 25, "self minus children");
  ExpectNear(perfbench::SelfP50(30, {}), 30, "self without children");
  ExpectNear(perfbench::SelfP50(1, {2}), -1, "self stays signed");

  std::vector<perfbench::Span> spans = {
      {1, 0, 7, "shell.execute", 100, 1100},
      {2, 1, 7, "core.get", 200, 700},
      {3, 0, 8, "shell.execute", 2000, 5000},
      {4, 3, 8, "core.get", 2100, 3100},
  };
  const double shell_p50 =
      perfbench::Median(perfbench::Durations(spans, "shell.execute", 1000));
  const double core_p50 =
      perfbench::Median(perfbench::Durations(spans, "core.get", 1000));
  ExpectNear(shell_p50, 2, "span p50 in us");
  ExpectNear(core_p50, 0.75, "child span p50 in us");
  ExpectNear(perfbench::SelfP50(shell_p50, {core_p50}), 1.25,
             "self time from spans");

  ExpectNear(static_cast<double>(perfbench::Fnv1a(perfbench::kFnvOffset, "a")),
             static_cast<double>(0xaf63dc4c8601ec8cull), "fnv1a");

  if (failures != 0) return EXIT_FAILURE;
  std::puts("perfbench_stats_test: ok");
  return EXIT_SUCCESS;
}
