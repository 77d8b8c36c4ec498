#ifndef CADDB_TXN_LOCK_MANAGER_H_
#define CADDB_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "obs/observability.h"
#include "util/status.h"
#include "values/value.h"

namespace caddb {

using TxnId = uint64_t;

enum class LockMode { kShared, kExclusive };

const char* LockModeName(LockMode mode);

/// A lockable unit: a whole object, or the *exported part* of an object —
/// the attribute/subclass set permeable through one inheritance relationship
/// type. Partial locks implement the paper's lock-inheritance: "the parts of
/// the component which are visible in the composite object have to be
/// read-locked when the data is touched in the composite object" (section 6).
struct LockItem {
  Surrogate object;
  /// Empty = whole object; otherwise an inher-rel-type name identifying the
  /// exported item set (its `inheriting` clause).
  std::string part;

  static LockItem Whole(Surrogate s) { return {s, ""}; }
  static LockItem Exported(Surrogate s, std::string inher_rel_type) {
    return {s, std::move(inher_rel_type)};
  }
  bool whole() const { return part.empty(); }
};

/// Strict two-phase lock manager with shared/exclusive modes on whole
/// objects and exported parts, waits-for deadlock detection (the requester
/// closing a cycle is the victim) and bounded waiting.
///
/// Part-vs-part conflicts are decided by permeability overlap: two exported
/// parts of the same object conflict only if their `inheriting` sets
/// intersect; a whole-object item overlaps everything on that object.
///
/// Thread-safe.
class LockManager {
 public:
  /// `catalog` is used to compare exported item sets; not owned. `obs` (not
  /// owned) receives lock counters and wait timings; null gives the manager
  /// a private bundle (obs::SharedOrOwned).
  explicit LockManager(const Catalog* catalog,
                       obs::Observability* obs = nullptr);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Blocks until granted, deadlock (kDeadlock; requester is victim and holds
  /// nothing new) or timeout (kFailedPrecondition). Re-acquisition by the
  /// same transaction is a no-op; S->X upgrade is supported.
  Status Acquire(TxnId txn, const LockItem& item, LockMode mode,
                 std::chrono::milliseconds timeout =
                     std::chrono::milliseconds(2000));

  /// Releases everything `txn` holds (commit/abort).
  void ReleaseAll(TxnId txn);

  /// Non-blocking check used by tests: would Acquire grant immediately?
  bool WouldGrant(TxnId txn, const LockItem& item, LockMode mode) const;

  /// Number of lock entries held by `txn`.
  size_t HeldCount(TxnId txn) const;
  /// Total granted lock entries.
  size_t TotalHeld() const;

 private:
  struct Entry {
    TxnId txn;
    LockMode mode;
    std::string part;
  };

  bool ItemsOverlap(const std::string& part_a, const std::string& part_b) const;
  bool ModesConflict(LockMode a, LockMode b) const {
    return a == LockMode::kExclusive || b == LockMode::kExclusive;
  }
  /// Conflicting holders of `item` other than `txn` (requires mu_).
  std::vector<TxnId> Blockers(TxnId txn, const LockItem& item,
                              LockMode mode) const;
  /// True if `from` can reach `to` in the waits-for graph (requires mu_).
  bool Reaches(TxnId from, TxnId to) const;

  const Catalog* catalog_;

  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  obs::Counter* m_acquires_;
  obs::Counter* m_waits_;
  obs::Counter* m_deadlocks_;
  obs::Counter* m_timeouts_;
  obs::Histogram* m_wait_us_;  // filled only by acquires that blocked

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, std::vector<Entry>> held_;     // object id -> entries
  std::map<TxnId, std::set<TxnId>> waits_for_;
};

}  // namespace caddb

#endif  // CADDB_TXN_LOCK_MANAGER_H_
