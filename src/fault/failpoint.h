#ifndef CADDB_FAULT_FAILPOINT_H_
#define CADDB_FAULT_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace caddb {
namespace fault {

/// What an armed failpoint does when it fires. A site declares the subset
/// of kinds that make sense for it (arming an unsupported kind is an
/// InvalidArgument naming the site); the generic kinds are interpreted by
/// Inject(), the domain kinds by the subsystem that owns the site:
///
///   generic      kError (return a Status), kAbort (std::abort), kDelay
///   byte budget  kCut (wal.file.cut, storage.file.cut: bytes beyond `arg`
///                silently dropped)
///   network      kDrop / kTruncate / kReset (sockets)
///   replication  kDrop / kTruncate / kDuplicate / kReorder / kCorrupt /
///                kStall (the shipper's per-attempt fault matrix)
enum class ActionKind {
  kOff,
  kError,
  kAbort,
  kDelay,
  kCut,
  kDrop,
  kTruncate,
  kReset,
  kCorrupt,
  kDuplicate,
  kReorder,
  kStall,
};

const char* ActionKindName(ActionKind kind);
Result<ActionKind> ActionKindFromName(const std::string& name);

/// Bitmask helpers for a site's supported-kind set.
constexpr uint32_t KindBit(ActionKind kind) {
  return 1u << static_cast<uint32_t>(kind);
}

/// An armed trigger: the action plus when it fires. The trigger walks the
/// site's hit stream: the first `skip` hits pass through, then every
/// `every`-th eligible hit is a candidate, each candidate fires with
/// `probability` (seeded RNG, deterministic per arm), and after `times`
/// fires (0 = unlimited) the spec goes quiet.
struct FailpointSpec {
  ActionKind kind = ActionKind::kOff;
  uint64_t delay_us = 0;    ///< kDelay: how long to stall.
  uint64_t arg = 0;         ///< kCut: byte budget. Other kinds: unused.
  std::string message;      ///< kError: Status message override.

  uint64_t skip = 0;
  uint64_t every = 1;
  uint64_t times = 0;
  double probability = 1.0;
  uint32_t seed = 1;

  /// Parses the shell token form: a kind token (`error[=msg]`, `abort`,
  /// `delay=50ms|2000us|1s`, `cut=4096`, `drop`, `truncate`, `reset`,
  /// `corrupt`, `duplicate`, `reorder`, `stall`) followed by optional
  /// `--skip=N --every=N --times=N --p=F --seed=S` modifiers.
  static Result<FailpointSpec> Parse(const std::vector<std::string>& tokens);
  /// Like Parse, on a whitespace-split string ("delay=2ms --every=3").
  static Result<FailpointSpec> ParseString(const std::string& text);

  /// Canonical round-trippable form (defaults omitted).
  std::string ToString() const;
};

/// What Hit() reports when a site fires.
struct FiredAction {
  ActionKind kind = ActionKind::kOff;
  uint64_t delay_us = 0;
  uint64_t arg = 0;
  std::string message;
};

/// One row of FailpointRegistry::List().
struct SiteInfo {
  std::string name;
  std::string help;
  bool armed = false;
  std::string spec;      ///< FailpointSpec::ToString() when armed, "off".
  uint64_t hits = 0;     ///< Evaluations since last arm.
  uint64_t fired = 0;    ///< Fires since last arm.
};

/// Process-wide registry of named failpoint sites. Subsystems consult
/// their sites inline (`fault::Inject("wal.append.pre_fsync")` or
/// `Hit()` for domain-specific kinds); operators arm them at runtime via
/// the shell's `fault arm` verb — locally or over the wire.
///
/// Concurrency: the disarmed fast path is one relaxed atomic load (no
/// lock, no map lookup); Evaluate/arm/disarm serialize on a mutex. Site
/// entries are never erased, so `List()` order is stable. Hit() never
/// sleeps or aborts while holding the lock — Inject() acts after
/// evaluation. The sleeper is injectable for tests.
class FailpointRegistry {
 public:
  /// A fresh registry with the built-in site table declared (unit tests
  /// construct their own; production code uses Global()).
  FailpointRegistry();
  FailpointRegistry(const FailpointRegistry&) = delete;
  FailpointRegistry& operator=(const FailpointRegistry&) = delete;

  static FailpointRegistry& Global();

  /// Declares a site. Idempotent for an identical re-declare.
  Status Declare(const std::string& site, const std::string& help,
                 uint32_t supported_kinds);

  /// Arms `site` with `spec`, resetting its hit/fired counters. When
  /// `metrics` is non-null the site exports its fire count as the counter
  /// `caddb_fault_fired_total{site="<site>"}` in that registry (which must
  /// outlive the armed spec — disarm before tearing the registry down).
  /// When `log` is non-null every fire additionally emits a kWarn event
  /// ("fault" subsystem) naming the site, the firing hit, and the armed
  /// spec, so metric spikes can be matched to the exact injections that
  /// caused them. Errors name the failing site and carry an errno:
  /// unknown site → ENOENT, unsupported or malformed spec → EINVAL.
  Status Arm(const std::string& site, const FailpointSpec& spec,
             obs::MetricsRegistry* metrics = nullptr,
             obs::EventLog* log = nullptr);

  /// Arm() on "<site> <spec tokens...>" in one string.
  Status ArmFromString(const std::string& directive,
                       obs::MetricsRegistry* metrics = nullptr,
                       obs::EventLog* log = nullptr);

  /// Disarms `site` (unknown site → NotFound naming it, with ENOENT).
  Status Disarm(const std::string& site);
  /// Disarms every site and drops metric bindings. Returns how many were
  /// armed.
  size_t DisarmAll();

  std::vector<SiteInfo> List() const;

  bool any_armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Evaluates one hit of `site`. Returns true when the site fires and
  /// fills `*out`; counts hits/fires and bumps the bound metric. Unknown
  /// or disarmed sites are a cheap false. Performs no action itself.
  bool Hit(const std::string& site, FiredAction* out);

  /// Hit() plus the generic actions: kError returns kUnavailable with the
  /// site name (and spec message, if any), kAbort writes the site to
  /// stderr and aborts, kDelay sleeps via the sleeper and returns OK.
  /// Domain kinds (cut/drop/...) at a generic call site degrade to
  /// kError — arm validation normally prevents that.
  Status Inject(const std::string& site);

  /// Replaces the delay sleeper (tests). Null restores the real one.
  void set_sleeper(std::function<void(uint64_t)> sleeper);
  /// Sleeps `delay_us` via the current sleeper (used by subsystems that
  /// handle kDelay themselves, e.g. sockets).
  void SleepFor(uint64_t delay_us);

 private:
  struct Site {
    std::string help;
    uint32_t supported = 0;
    bool armed = false;
    FailpointSpec spec;
    uint64_t hits = 0;
    uint64_t fired = 0;
    std::mt19937 rng;
    obs::Counter* fired_counter = nullptr;  // null when no metrics bound
    obs::EventLog* event_log = nullptr;     // null when no log bound
  };

  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
  std::atomic<uint64_t> armed_count_{0};
  std::function<void(uint64_t)> sleeper_;  // null = real nanosleep
};

/// The canonical site table. Subsystems reference these constants; the
/// registry declares them (with their supported-kind sets) on
/// construction.
namespace sites {
inline constexpr char kWalAppendPreFsync[] = "wal.append.pre_fsync";
inline constexpr char kWalFileCut[] = "wal.file.cut";
inline constexpr char kWalCheckpointPublish[] = "wal.checkpoint.publish";
inline constexpr char kStoragePageWrite[] = "storage.page.write";
inline constexpr char kStoragePageFlush[] = "storage.page.flush";
inline constexpr char kStorageFileCut[] = "storage.file.cut";
inline constexpr char kReplicationShip[] = "replication.ship";
inline constexpr char kReplicationShipManifest[] =
    "replication.ship.manifest";
inline constexpr char kNetSessionWrite[] = "net.session.write";
inline constexpr char kNetSessionRead[] = "net.session.read";
inline constexpr char kNetClientWrite[] = "net.client.write";
inline constexpr char kNetClientRead[] = "net.client.read";
}  // namespace sites

/// Convenience wrappers over Global() with the one-atomic-load fast path
/// inlined, cheap enough for WAL appends and socket I/O.
inline bool Hit(const std::string& site, FiredAction* out) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  if (!reg.any_armed()) return false;
  return reg.Hit(site, out);
}

inline Status Inject(const std::string& site) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  if (!reg.any_armed()) return OkStatus();
  return reg.Inject(site);
}

}  // namespace fault
}  // namespace caddb

#endif  // CADDB_FAULT_FAILPOINT_H_
