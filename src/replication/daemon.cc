#include "replication/daemon.h"

#include <chrono>
#include <memory>
#include <random>

namespace caddb {
namespace replication {

namespace {

void EnsureJitterSource(DaemonOptions* options) {
  if (!options->jitter_source) {
    options->jitter_source = [rng = std::make_shared<std::mt19937>(
                                  std::random_device{}())]() mutable {
      return std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    };
  }
}

uint64_t JitteredIntervalMs(const DaemonOptions& options) {
  uint64_t interval = options.interval_ms;
  if (options.jitter > 0 && interval > 0) {
    const double shave = options.jitter_source() * options.jitter *
                         static_cast<double>(interval);
    interval -= static_cast<uint64_t>(shave);
  }
  return interval;
}

}  // namespace

AutoShipper::AutoShipper(Shipper* shipper, DaemonOptions options)
    : shipper_(shipper), options_(std::move(options)) {
  EnsureJitterSource(&options_);
  thread_ = std::thread([this] { Loop(); });
}

AutoShipper::~AutoShipper() { Stop(); }

void AutoShipper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

AutoShipperStats AutoShipper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AutoShipper::Loop() {
  while (true) {
    Result<ShipmentReport> report = shipper_->ShipNow();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (report.ok()) {
        ++stats_.ships;
        stats_.last_seq = report->seq;
        stats_.last_shipped_lsn = report->shipped_lsn;
      } else {
        ++stats_.failures;
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t wait_ms = JitteredIntervalMs(options_);
    cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                 [this] { return stop_; });
    if (stop_) return;
  }
}

AutoPoller::AutoPoller(
    Follower* follower, DaemonOptions options,
    std::function<std::unique_lock<std::mutex>()> pause_execution)
    : follower_(follower),
      options_(std::move(options)),
      pause_execution_(std::move(pause_execution)) {
  EnsureJitterSource(&options_);
  thread_ = std::thread([this] { Loop(); });
}

AutoPoller::~AutoPoller() { Stop(); }

void AutoPoller::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

AutoPollerStats AutoPoller::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AutoPoller::Loop() {
  while (true) {
    Result<PollResult> polled = [this] {
      // The swap barrier: while execution is paused no session reader
      // holds a pointer into the database an applying poll is about to
      // replace.
      if (pause_execution_) {
        std::unique_lock<std::mutex> exec = pause_execution_();
        return follower_->Poll();
      }
      return follower_->Poll();
    }();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.polls;
      if (polled.ok()) {
        if (polled->advanced) ++stats_.advances;
      } else {
        ++stats_.failures;
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t wait_ms = JitteredIntervalMs(options_);
    cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                 [this] { return stop_; });
    if (stop_) return;
  }
}

}  // namespace replication
}  // namespace caddb
