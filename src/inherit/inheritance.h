#ifndef CADDB_INHERIT_INHERITANCE_H_
#define CADDB_INHERIT_INHERITANCE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "inherit/notification.h"
#include "obs/observability.h"
#include "store/store.h"
#include "util/result.h"
#include "values/value.h"

namespace caddb {

/// The value-inheritance engine — the paper's central mechanism (section 4).
///
/// Reads of inherited attributes/subclasses resolve *through* the inheritance
/// chain to the transmitter at access time ("any update of the original data
/// is instantly visible in the composite object", section 2). Nothing is
/// copied; an unbound inheritor sees only the attribute structure (type-level
/// inheritance = generalization). Writes to the transmitter append change
/// records to every affected inheritance relationship, transitively, for the
/// adaptation workflow.
///
/// An optional memoization cache accelerates repeated inherited reads.
/// Every entry records the chain of objects the resolved value depends on,
/// each with the per-object version observed while resolving; a probe
/// revalidates only those versions, so writes to unrelated objects never
/// evict anything. Attribute and subclass
/// resolutions are cached for every node of the walked chain (a leaf read
/// warms the cache for the whole hierarchy above it).
class InheritanceManager {
 public:
  /// Neither pointer is owned; both must outlive the manager.
  /// `notifications` may be null (no change logging). `obs` (not owned)
  /// receives resolution counters and trace spans; null gives the manager
  /// a private bundle (obs::SharedOrOwned).
  InheritanceManager(ObjectStore* store, NotificationCenter* notifications,
                     obs::Observability* obs = nullptr);

  /// Registry names of the resolution-cache counters.
  static constexpr char kCacheHits[] = "caddb_inherit_cache_hits_total";
  static constexpr char kCacheMisses[] = "caddb_inherit_cache_misses_total";
  static constexpr char kCacheInvalidations[] =
      "caddb_inherit_cache_invalidations_total";

  InheritanceManager(const InheritanceManager&) = delete;
  InheritanceManager& operator=(const InheritanceManager&) = delete;

  // ---- Binding ----
  /// Binds `inheritor` to `transmitter` through `inher_rel_type`; returns the
  /// surrogate of the new inheritance-relationship object.
  Result<Surrogate> Bind(Surrogate inheritor, Surrogate transmitter,
                         const std::string& inher_rel_type);
  Status Unbind(Surrogate inheritor);
  /// The bound transmitter, or Invalid when unbound. NotFound if `inheritor`
  /// does not exist.
  Result<Surrogate> TransmitterOf(Surrogate inheritor) const;
  /// The inheritance-relationship object binding `inheritor`, or Invalid.
  Result<Surrogate> BindingOf(Surrogate inheritor) const;
  /// All inheritors directly bound to `transmitter`. InternalError when the
  /// where-used index names an inheritance relationship the store cannot
  /// produce (index corruption must surface, not silently shrink results).
  Result<std::vector<Surrogate>> InheritorsOf(Surrogate transmitter) const;

  // ---- Inheritance-aware access ----
  /// Effective attribute read: local value for own attributes, transmitter
  /// resolution for inherited ones (null when unbound).
  Result<Value> GetAttribute(Surrogate s, const std::string& name) const;
  /// Effective subclass read: local members for own subclasses, the
  /// transmitter's members (read-only view) for inherited ones.
  Result<std::vector<Surrogate>> GetSubclass(Surrogate s,
                                             const std::string& name) const;
  /// Store write plus transitive change notification to all inheritance
  /// relationships for which `name` is permeable.
  Status SetAttribute(Surrogate s, const std::string& name, Value v);
  /// Store subobject creation plus change notification for the subclass.
  Result<Surrogate> CreateSubobject(Surrogate parent,
                                    const std::string& subclass_name);
  /// Deletes a subobject (or any object) and notifies inheritors watching the
  /// containing subclass.
  Status DeleteObject(Surrogate s, ObjectStore::DeletePolicy policy =
                                       ObjectStore::DeletePolicy::kRestrict);

  /// Snapshot of every effective attribute (inherited values materialized).
  /// Used by the copy-import baseline and workspace checkout.
  Result<std::map<std::string, Value>> Snapshot(Surrogate s) const;

  // ---- Resolution cache (off by default) ----
  /// Switches the cache on or off. Switching drops all entries but keeps
  /// the counters; setting the current state again is a no-op (entries
  /// and counters survive).
  void EnableCache(bool on);
  bool cache_enabled() const { return cache_enabled_; }
  /// Zeroes the bundle's hit/miss/invalidation counters without touching
  /// the entries.
  void ResetCacheStats();
  /// Views of the bundle's caddb_inherit_cache_* counters.
  uint64_t cache_hits() const { return m_cache_hits_->value(); }
  uint64_t cache_misses() const { return m_cache_misses_->value(); }
  /// Probes that found an entry whose dependency set was out of date; the
  /// entry is evicted and the probe also counts as a miss.
  uint64_t cache_invalidations() const { return m_invalidations_->value(); }
  size_t cache_entries() const {
    return attr_cache_.size() + subclass_cache_.size();
  }

  /// Consistency audit for the static analyzer (CAD107): re-resolves every
  /// cache entry whose validity metadata still checks out *without* the
  /// cache and reports entries whose payload disagrees with the fresh
  /// resolution — i.e. dependency tracking failed to notice a change.
  /// Entries whose metadata is already stale are skipped (staleness is the
  /// normal eviction path, not corruption). Read-only; never repairs.
  std::vector<std::string> AuditCache() const;

  NotificationCenter* notifications() const { return notifications_; }
  ObjectStore* store() const { return store_; }

 private:
  /// One memoized resolution. `deps` lists every object of the transmitter
  /// chain the payload was derived from, leaf-entry first, paired with the
  /// per-object version observed during resolution; `schema_epoch` guards
  /// against DDL registrations changing permeability after the fill.
  template <typename T>
  struct CacheEntry {
    uint64_t schema_epoch = 0;
    std::vector<std::pair<uint64_t, uint64_t>> deps;
    T payload;
  };
  using CacheKey = std::pair<uint64_t, std::string>;  // (surrogate, item)

  template <typename T>
  bool EntryValid(const CacheEntry<T>& entry) const;
  /// Cache probe with hit/miss/invalidation accounting; returns the payload
  /// or null. Stale entries are evicted on probe.
  template <typename T>
  const T* Probe(std::map<CacheKey, CacheEntry<T>>* cache,
                 const CacheKey& key) const;
  /// Inserts one entry per chain node (except a terminal node that resolved
  /// `item` locally — local reads never consult the cache), so one deep read
  /// warms every level above it. chain[i]'s dependency set is the chain
  /// suffix starting at i.
  template <typename T>
  void FillChain(std::map<CacheKey, CacheEntry<T>>* cache,
                 const std::string& item,
                 const std::vector<const DbObject*>& chain,
                 bool terminal_is_local, const T& payload) const;

  /// Recursively notifies the inheritance relationships hanging off
  /// `transmitter` about a change of permeable item `item`.
  void NotifyChange(Surrogate transmitter, const std::string& item);

  /// Chain-walk resolutions that bypass the cache entirely (no probe, no
  /// fill, no counters). AuditCache compares cached payloads against these.
  Result<Value> ResolveAttributeUncached(Surrogate s,
                                         const std::string& name) const;
  Result<std::vector<Surrogate>> ResolveSubclassUncached(
      Surrogate s, const std::string& name) const;

  ObjectStore* store_;
  NotificationCenter* notifications_;

  bool cache_enabled_ = false;
  mutable std::map<CacheKey, CacheEntry<Value>> attr_cache_;
  mutable std::map<CacheKey, CacheEntry<std::vector<Surrogate>>>
      subclass_cache_;

  /// Cache and resolution counters, plus the trace-gated resolve timing.
  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  obs::Counter* m_cache_hits_;
  obs::Counter* m_cache_misses_;
  obs::Counter* m_invalidations_;
  obs::Counter* m_resolutions_;
  obs::Histogram* m_resolve_us_;
};

}  // namespace caddb

#endif  // CADDB_INHERIT_INHERITANCE_H_
