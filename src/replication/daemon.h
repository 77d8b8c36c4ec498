#ifndef CADDB_REPLICATION_DAEMON_H_
#define CADDB_REPLICATION_DAEMON_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "replication/follower.h"
#include "replication/shipper.h"

namespace caddb {
namespace replication {

/// Cadence for a replication daemon thread.
struct DaemonOptions {
  uint64_t interval_ms = 200;
  /// Jitter fraction (0..1) of the interval, subtracted uniformly: each
  /// sleep lands in [interval*(1-jitter), interval], so a fleet of
  /// followers started together does not poll the primary in lockstep.
  double jitter = 0.25;
  /// Uniform [0,1) source behind the jitter; injectable for tests.
  std::function<double()> jitter_source;
};

struct AutoShipperStats {
  uint64_t ships = 0;     // successful ShipNow calls
  uint64_t failures = 0;  // ShipNow errors (retried next tick)
  uint64_t last_seq = 0;
  uint64_t last_shipped_lsn = 0;
};

/// Background shipping on the primary: calls Shipper::ShipNow on a jittered
/// interval, replacing the shell's manual `ship`. Safe alongside commits —
/// ShipNow pauses checkpoints while snapshotting and reads only the
/// append-only valid prefix of the live segment. Errors are counted and
/// retried on the next tick; shipping is idempotent and self-healing.
class AutoShipper {
 public:
  /// `shipper` is not owned and must outlive the daemon. The thread starts
  /// immediately and ships once right away (a follower waiting on the first
  /// manifest should not wait a full interval).
  AutoShipper(Shipper* shipper, DaemonOptions options = {});
  ~AutoShipper();

  AutoShipper(const AutoShipper&) = delete;
  AutoShipper& operator=(const AutoShipper&) = delete;

  /// Stops and joins the thread. Idempotent; the destructor calls it.
  void Stop();

  AutoShipperStats stats() const;

 private:
  void Loop();

  Shipper* shipper_;
  DaemonOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  AutoShipperStats stats_;
  std::thread thread_;
};

struct AutoPollerStats {
  uint64_t polls = 0;     // Poll calls made
  uint64_t advances = 0;  // polls that applied a new manifest
  uint64_t failures = 0;  // polls that errored (transient or quarantine)
};

/// Background catch-up on a follower: calls Follower::Poll on a jittered
/// interval, replacing the shell's manual `replica poll`. When the follower
/// is served by a net::Server, wire the server's PauseExecution through
/// `pause_execution` — every applying poll replaces the follower's Database
/// wholesale, and the swap must not free an instance a session reader is
/// reading. A quarantined follower keeps ticking (and counting failures)
/// so an operator reseed resumes automatically.
class AutoPoller {
 public:
  /// `follower` is not owned and must outlive the daemon. Polls once
  /// immediately.
  AutoPoller(Follower* follower, DaemonOptions options = {},
             std::function<std::unique_lock<std::mutex>()> pause_execution =
                 nullptr);
  ~AutoPoller();

  AutoPoller(const AutoPoller&) = delete;
  AutoPoller& operator=(const AutoPoller&) = delete;

  /// Stops and joins the thread. Idempotent; the destructor calls it.
  void Stop();

  AutoPollerStats stats() const;

 private:
  void Loop();

  Follower* follower_;
  DaemonOptions options_;
  std::function<std::unique_lock<std::mutex>()> pause_execution_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  AutoPollerStats stats_;
  std::thread thread_;
};

}  // namespace replication
}  // namespace caddb

#endif  // CADDB_REPLICATION_DAEMON_H_
