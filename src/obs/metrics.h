#ifndef CADDB_OBS_METRICS_H_
#define CADDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace caddb {
namespace obs {

/// Monotone event counter. Updates are single relaxed atomic adds — safe
/// from any thread, never blocking, and cheap enough for the hottest paths
/// (inherited-attribute reads, WAL appends).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Tests and `cache reset-stats`-style tooling only; production counters
  /// are monotone.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed level (replica lag, live entries, queue depth).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Snapshot of one histogram, with percentile extraction. `counts[i]` is the
/// number of observations <= `bounds[i]`; `counts.back()` (one longer than
/// bounds) is the overflow bucket.
struct HistogramSnapshot {
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  uint64_t sum = 0;

  /// Percentile estimate (q in [0,1]) by linear interpolation within the
  /// containing bucket (the first bucket narrowed around its mean, see
  /// metrics.cc). 0 when empty; the last finite bound when the quantile
  /// lands in the overflow bucket.
  double Percentile(double q) const;
};

/// Fixed-bucket latency histogram. Bucket bounds are set at construction
/// (default: powers of two from 1 to 2^25, interpreted by convention as
/// microseconds — sub-microsecond observations land in the first bucket,
/// half-minute stalls in the overflow bucket). Recording is two relaxed
/// atomic adds plus a branch-free bucket search over a tiny array; there is
/// no lock anywhere on the update path.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds = DefaultBounds());

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;
  void Reset();

  /// 1, 2, 4, ..., 2^25: 26 exponential buckets covering ~100ns noise
  /// through ~33-second stalls at constant relative error.
  static std::vector<uint64_t> DefaultBounds();

 private:
  const std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// One named instrument of each kind, as captured by MetricsRegistry::
/// Snapshot(). Names follow Prometheus conventions: `caddb_<subsystem>_
/// <what>[_total|_us]`, lowercase, underscores only.
struct CounterSample {
  std::string name;
  std::string help;
  uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  std::string help;
  int64_t value = 0;
};
struct HistogramSample {
  std::string name;
  std::string help;
  HistogramSnapshot data;
};

/// Point-in-time capture of a whole registry, ordered by name. The
/// exposition renderers (obs/exposition.h) and DatabaseStats consume this.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* FindCounter(const std::string& name) const;
  /// The named counter's value; 0 when it was never registered.
  uint64_t CounterValue(const std::string& name) const;
  const GaugeSample* FindGauge(const std::string& name) const;
  const HistogramSample* FindHistogram(const std::string& name) const;
};

/// Named instrument registry. Lookup/registration takes a mutex (subsystems
/// resolve their instruments once, at construction); the returned pointers
/// are stable for the registry's lifetime and every update through them is
/// lock-free. Re-requesting a name returns the same instrument, so two
/// subsystems may share one metric.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  /// `bounds` applies only when the histogram is created by this call;
  /// empty means Histogram::DefaultBounds().
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "",
                          std::vector<uint64_t> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// Zeroes every instrument (entries stay registered). Tests only.
  void Reset();

 private:
  struct Named {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Named> instruments_;
};

}  // namespace obs
}  // namespace caddb

#endif  // CADDB_OBS_METRICS_H_
