#ifndef CADDB_INHERIT_INHERITANCE_H_
#define CADDB_INHERIT_INHERITANCE_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
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
/// Every inherited read goes through one bounded memoization cache. Each
/// entry records the chain of objects the resolved value depends on, each
/// with the per-object version observed while resolving; a probe
/// revalidates only those versions, so writes to unrelated objects never
/// evict anything. Attribute and subclass resolutions are cached for every
/// node of the walked chain (a leaf read warms the cache for the whole
/// hierarchy above it). Reads probe before they look the object up, so a
/// hit faults nothing in and decodes nothing.
///
/// Thread model: the cache is filled by const reads, so every caller must
/// hold the database's store gate (Database::LockStore), the same gate that
/// guards fault-ins.
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
  static constexpr char kCacheEvictions[] =
      "caddb_inherit_cache_evictions_total";

  /// Most entries the resolution cache holds, attribute and subclass
  /// entries together. A fill that crosses it drops the stale entries,
  /// then sweeps cold ones (second chance) until 7/8 of it remain. Far
  /// above every perfbench working set (the largest, page, holds ~2,000
  /// entries), and a few MiB at most, so the cache stays small next to
  /// `resident_object_budget`.
  static constexpr size_t kCacheCapacity = 16384;

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

  // ---- Resolution cache ----
  /// Zeroes the bundle's hit/miss/invalidation/eviction counters without
  /// touching the entries.
  void ResetCacheStats();
  /// Views of the bundle's caddb_inherit_cache_* counters.
  uint64_t cache_hits() const { return m_cache_hits_->value(); }
  /// Reads of an inherited item that walked the chain.
  uint64_t cache_misses() const { return m_cache_misses_->value(); }
  /// Probes that found an entry whose dependency set was out of date; the
  /// entry is erased and the read walks the chain (a miss).
  uint64_t cache_invalidations() const { return m_invalidations_->value(); }
  /// Entries dropped to keep the cache within kCacheCapacity.
  uint64_t cache_evictions() const { return m_evictions_->value(); }
  size_t cache_entries() const { return cache_.size(); }

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
  /// What an entry resolves: an attribute's value or a subclass's members.
  enum class Item : uint8_t { kAttribute, kSubclass };
  struct CacheKey {
    uint64_t id = 0;
    Item item = Item::kAttribute;
    std::string name;
    bool operator<(const CacheKey& other) const {
      return std::tie(id, item, name) <
             std::tie(other.id, other.item, other.name);
    }
  };
  /// One memoized resolution. `deps` lists every object of the transmitter
  /// chain the payload was derived from, leaf-entry first, paired with the
  /// per-object version observed during resolution; `schema_epoch` guards
  /// against DDL registrations changing permeability after the fill.
  struct CacheEntry {
    uint64_t schema_epoch = 0;
    std::vector<std::pair<uint64_t, uint64_t>> deps;
    Value value;                     // Item::kAttribute
    std::vector<Surrogate> members;  // Item::kSubclass
    /// Set by a fill or a hit, cleared by a passing sweep: one sweep of
    /// second chance, as ObjectStore::TrimResident gives resident objects.
    bool referenced = true;
  };

  bool EntryValid(const CacheEntry& entry) const;
  /// The valid entry for `key` (counted as a hit), or null. A stale entry
  /// is erased and counted as an invalidation. A valid entry proves what
  /// the object and schema lookups would: its deps start with the keyed
  /// object's own version (live, same type) and its epoch is current (the
  /// item is still inherited), so callers probe before those lookups.
  const CacheEntry* Probe(const CacheKey& key) const;
  /// Follows `name` from `obj` (of effective schema `schema`) up the
  /// transmitter chain, appending every visited object to `chain`. Returns
  /// the node that holds `name` locally (`obj` itself when it does not
  /// inherit `name`), or null when the chain ends at an unbound inheritor,
  /// which inherits only the structure.
  Result<const DbObject*> WalkChain(const DbObject* obj,
                                    const EffectiveSchema* schema,
                                    const std::string& name,
                                    std::vector<const DbObject*>* chain) const;
  /// Inserts `resolved`'s payload for every chain node (except a terminal
  /// that holds `name` locally — local reads never consult the cache), so
  /// one deep read warms every level above it. chain[i]'s dependency set
  /// is the chain suffix starting at i. Trims past kCacheCapacity.
  void FillChain(Item item, const std::string& name,
                 const std::vector<const DbObject*>& chain,
                 bool terminal_is_local, const CacheEntry& resolved) const;
  /// Drops stale entries, then sweeps cold ones from where the last sweep
  /// stopped, until 7/8 of kCacheCapacity remain; counts the evictions.
  void TrimCache() const;
  /// AuditCache's reference: resolves `key` by a fresh chain walk that
  /// bypasses the cache (no probe, no fill, no counters).
  Status ResolveUncached(const CacheKey& key, CacheEntry* fresh) const;

  /// Recursively notifies the inheritance relationships hanging off
  /// `transmitter` about a change of permeable item `item`.
  void NotifyChange(Surrogate transmitter, const std::string& item);

  ObjectStore* store_;
  NotificationCenter* notifications_;

  mutable std::map<CacheKey, CacheEntry> cache_;
  mutable CacheKey trim_cursor_;

  /// Cache and resolution counters, plus the trace-gated resolve timing.
  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  obs::Counter* m_cache_hits_;
  obs::Counter* m_cache_misses_;
  obs::Counter* m_invalidations_;
  obs::Counter* m_evictions_;
  obs::Counter* m_resolutions_;
  obs::Histogram* m_resolve_us_;
};

}  // namespace caddb

#endif  // CADDB_INHERIT_INHERITANCE_H_
