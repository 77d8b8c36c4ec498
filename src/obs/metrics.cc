#include "obs/metrics.h"

#include <algorithm>

namespace caddb {
namespace obs {

std::vector<uint64_t> Histogram::DefaultBounds() {
  std::vector<uint64_t> bounds;
  bounds.reserve(26);
  for (int i = 0; i < 26; ++i) bounds.push_back(1ull << i);
  return bounds;
}

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Record(uint64_t value) {
  size_t i = std::upper_bound(bounds_.begin(), bounds_.end(), value - 1) -
             bounds_.begin();
  if (value == 0) i = 0;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts.push_back(buckets_[i].load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::Percentile(double q) const {
  // Bucket totals may race the `count` capture under concurrent recording;
  // rank against the bucket sum so the walk always terminates in-range.
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t next = seen + counts[i];
    if (static_cast<double>(next) >= rank) {
      if (i >= bounds.size()) return static_cast<double>(bounds.back());
      double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      double hi = static_cast<double>(bounds[i]);
      if (i == 0) {
        // The first bucket is closed at both ends ([0, bounds[0]]), so
        // interpolating over all of it puts a constant-1 distribution's
        // median at 0.5. Narrow it to the span centred on the largest mean
        // the recorded sum leaves for it, with every later observation at
        // its bucket's integer floor: exact when the first bucket holds
        // everything, never outside [0, bounds[0]].
        double rest_floor = 0.0;
        for (size_t j = 1; j < counts.size(); ++j) {
          rest_floor += static_cast<double>(counts[j]) *
                        static_cast<double>(bounds[j - 1] + 1);
        }
        const double mean = std::min(
            hi, std::max(0.0, (static_cast<double>(sum) - rest_floor) /
                                  static_cast<double>(counts[0])));
        lo = std::max(0.0, 2.0 * mean - hi);
        hi = std::min(hi, 2.0 * mean);
      }
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    seen = next;
  }
  return static_cast<double>(bounds.back());
}

const CounterSample* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  for (const CounterSample& s : counters) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  const CounterSample* sample = FindCounter(name);
  return sample != nullptr ? sample->value : 0;
}

const GaugeSample* MetricsSnapshot::FindGauge(const std::string& name) const {
  for (const GaugeSample& s : gauges) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSample& s : histograms) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Named& entry = instruments_[name];
  if (entry.counter == nullptr) entry.counter = std::make_unique<Counter>();
  if (entry.help.empty()) entry.help = help;
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Named& entry = instruments_[name];
  if (entry.gauge == nullptr) entry.gauge = std::make_unique<Gauge>();
  if (entry.help.empty()) entry.help = help;
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Named& entry = instruments_[name];
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>(
        bounds.empty() ? Histogram::DefaultBounds() : std::move(bounds));
  }
  if (entry.help.empty()) entry.help = help;
  return entry.histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, entry] : instruments_) {
    if (entry.counter != nullptr) {
      snap.counters.push_back({name, entry.help, entry.counter->value()});
    }
    if (entry.gauge != nullptr) {
      snap.gauges.push_back({name, entry.help, entry.gauge->value()});
    }
    if (entry.histogram != nullptr) {
      snap.histograms.push_back({name, entry.help,
                                 entry.histogram->Snapshot()});
    }
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : instruments_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Set(0);
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

}  // namespace obs
}  // namespace caddb
