#include "txn/lock_manager.h"

#include <algorithm>
#include <deque>

namespace caddb {

const char* LockModeName(LockMode mode) {
  return mode == LockMode::kShared ? "S" : "X";
}

LockManager::LockManager(const Catalog* catalog, obs::Observability* obs)
    : catalog_(catalog), obs_(obs::SharedOrOwned(obs, &owned_obs_)) {
  m_acquires_ = obs_->metrics.GetCounter("caddb_lock_acquires_total",
                                         "Lock acquisitions granted");
  m_waits_ = obs_->metrics.GetCounter(
      "caddb_lock_waits_total", "Acquisitions that blocked on a conflict");
  m_deadlocks_ = obs_->metrics.GetCounter(
      "caddb_lock_deadlocks_total",
      "Acquisitions aborted as deadlock victims");
  m_timeouts_ = obs_->metrics.GetCounter("caddb_lock_timeouts_total",
                                         "Acquisitions that timed out");
  m_wait_us_ = obs_->metrics.GetHistogram(
      "caddb_lock_wait_us",
      "Blocked time of lock acquisitions that waited (granted or not)");
}

bool LockManager::ItemsOverlap(const std::string& part_a,
                               const std::string& part_b) const {
  if (part_a.empty() || part_b.empty()) return true;  // whole object involved
  if (part_a == part_b) return true;
  const InherRelTypeDef* a = catalog_->FindInherRelType(part_a);
  const InherRelTypeDef* b = catalog_->FindInherRelType(part_b);
  if (a == nullptr || b == nullptr) return true;  // unknown: be conservative
  for (const std::string& item : a->inheriting) {
    if (std::find(b->inheriting.begin(), b->inheriting.end(), item) !=
        b->inheriting.end()) {
      return true;
    }
  }
  return false;
}

std::vector<TxnId> LockManager::Blockers(TxnId txn, const LockItem& item,
                                         LockMode mode) const {
  std::vector<TxnId> out;
  auto it = held_.find(item.object.id);
  if (it == held_.end()) return out;
  for (const Entry& e : it->second) {
    if (e.txn == txn) continue;
    if (!ItemsOverlap(e.part, item.part)) continue;
    if (ModesConflict(e.mode, mode)) out.push_back(e.txn);
  }
  return out;
}

bool LockManager::Reaches(TxnId from, TxnId to) const {
  std::deque<TxnId> worklist{from};
  std::set<TxnId> seen{from};
  while (!worklist.empty()) {
    TxnId current = worklist.front();
    worklist.pop_front();
    if (current == to) return true;
    auto it = waits_for_.find(current);
    if (it == waits_for_.end()) continue;
    for (TxnId next : it->second) {
      if (seen.insert(next).second) worklist.push_back(next);
    }
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, const LockItem& item, LockMode mode,
                            std::chrono::milliseconds timeout) {
  // Declared before the guard so the span (and any observer callback it
  // triggers) completes only after mu_ is released.
  obs::Span span(&obs_->trace, "lock.acquire");
  span.AddAttribute("object", item.object.id);
  if (!item.whole()) span.AddAttribute("part", item.part);
  uint64_t wait_start_us = 0;  // nonzero once this acquire has blocked
  auto record_wait = [this, &wait_start_us] {
    if (wait_start_us != 0) {
      m_wait_us_->Record(obs::Tracer::NowUs() - wait_start_us);
    }
  };
  std::unique_lock<std::mutex> lock(mu_);
  auto deadline = std::chrono::steady_clock::now() + timeout;

  while (true) {
    // Re-acquisition / upgrade handling: find our own entry on this item.
    auto& entries = held_[item.object.id];
    Entry* own = nullptr;
    for (Entry& e : entries) {
      if (e.txn == txn && e.part == item.part) {
        own = &e;
        break;
      }
    }
    if (own != nullptr &&
        (own->mode == LockMode::kExclusive || mode == LockMode::kShared)) {
      record_wait();
      m_acquires_->Increment();
      return OkStatus();  // already strong enough
    }

    std::vector<TxnId> blockers = Blockers(txn, item, mode);
    if (blockers.empty()) {
      if (own != nullptr) {
        own->mode = LockMode::kExclusive;  // upgrade
      } else {
        entries.push_back(Entry{txn, mode, item.part});
      }
      waits_for_.erase(txn);
      record_wait();
      m_acquires_->Increment();
      return OkStatus();
    }

    // Record waits-for edges and detect a cycle through us: if any blocker
    // (transitively) waits for us, granting would deadlock — the requester
    // is the victim.
    auto& edges = waits_for_[txn];
    edges.clear();
    for (TxnId b : blockers) edges.insert(b);
    for (TxnId b : blockers) {
      if (Reaches(b, txn)) {
        waits_for_.erase(txn);
        cv_.notify_all();
        record_wait();
        m_deadlocks_->Increment();
        span.AddAttribute("outcome", "deadlock");
        return DeadlockError(
            "transaction " + std::to_string(txn) + " would deadlock on " +
            LockModeName(mode) + "-lock of @" +
            std::to_string(item.object.id) +
            (item.whole() ? "" : ("/" + item.part)));
      }
    }

    if (wait_start_us == 0) {
      wait_start_us = obs::Tracer::NowUs();
      m_waits_->Increment();
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // One more check after the timeout to avoid a spurious failure.
      if (Blockers(txn, item, mode).empty()) continue;
      waits_for_.erase(txn);
      cv_.notify_all();
      record_wait();
      m_timeouts_->Increment();
      span.AddAttribute("outcome", "timeout");
      return FailedPrecondition(
          "lock wait timeout: transaction " + std::to_string(txn) + " on @" +
          std::to_string(item.object.id));
    }
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = held_.begin(); it != held_.end();) {
      auto& entries = it->second;
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [txn](const Entry& e) {
                                     return e.txn == txn;
                                   }),
                    entries.end());
      if (entries.empty()) {
        it = held_.erase(it);
      } else {
        ++it;
      }
    }
    waits_for_.erase(txn);
    for (auto& [waiter, targets] : waits_for_) targets.erase(txn);
  }
  cv_.notify_all();
}

bool LockManager::WouldGrant(TxnId txn, const LockItem& item,
                             LockMode mode) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Blockers(txn, item, mode).empty();
}

size_t LockManager::HeldCount(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [object, entries] : held_) {
    for (const Entry& e : entries) {
      if (e.txn == txn) ++n;
    }
  }
  return n;
}

size_t LockManager::TotalHeld() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [object, entries] : held_) n += entries.size();
  return n;
}

}  // namespace caddb
