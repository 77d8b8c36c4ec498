#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double SelfP50(double layer_p50, const std::vector<double>& child_p50s) {
  double self = layer_p50;
  for (double child : child_p50s) self -= child;
  return self;
}

std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name, double unit_ns) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) out.push_back(span.duration_ns() / unit_ns);
  }
  return out;
}

uint64_t Fnv1a(uint64_t hash, const std::string& data) {
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
