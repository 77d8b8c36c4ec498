#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile `p` (0..100) of raw samples, linearly interpolated between
/// the two nearest order statistics (the "linear" method of numpy and of
/// Python's statistics.quantiles with method="inclusive"). Computed from
/// the samples themselves, never from histogram buckets, so a constant
/// distribution reports that constant at every percentile. Returns 0 for
/// an empty sample. `samples` is taken by value because it is sorted.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// Self time of a layer whose calls each contain one call into every
/// layer in `child_p50s`, all timed over the same request lines: the
/// layer's median minus the children's medians. May be negative when the
/// layers' medians were taken under different conditions; callers print it
/// as measured.
double SelfP50(double layer_p50, const std::vector<double>& child_p50s);

/// One timed call, recorded in memory and written out when a run ends.
/// `parent` is the span id of the call one layer up that served the same
/// request line (0 for a root); `request` is the request line's id.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double duration_ns() const { return static_cast<double>(end_ns - start_ns); }
};

/// Durations (in `unit_ns` units) of every span called `name`.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name, double unit_ns);

/// FNV-1a, 64 bit: the request-stream hash.
uint64_t Fnv1a(uint64_t hash, const std::string& data);
constexpr uint64_t kFnvOffset = 14695981039346656037ull;

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
