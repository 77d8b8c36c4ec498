#ifndef CADDB_STORE_STORE_H_
#define CADDB_STORE_STORE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "store/object.h"
#include "util/result.h"
#include "util/status.h"

namespace caddb {

/// Demand-paging backend of the ObjectStore. The database wires an adapter
/// over the storage::PagedHeap in here; the store itself stays ignorant of
/// pages, it only knows that a clean object it evicted can be fetched back.
class ObjectPager {
 public:
  virtual ~ObjectPager() = default;
  /// True when `id` has a persisted record (safe to evict a clean copy).
  virtual bool Contains(uint64_t id) const = 0;
  /// Materializes the persisted state of `id`.
  virtual Result<std::unique_ptr<DbObject>> Fetch(uint64_t id) const = 0;
};

/// In-memory object store: owns every object, relationship object and
/// inheritance-relationship object; allocates surrogates; maintains classes,
/// per-type extents and the where-used index; enforces schema/domain rules,
/// the read-only nature of inherited data, and the subobject lifetime rule
/// ("all subobjects depend on the complex object, they are deleted with the
/// complex object", paper section 3).
///
/// Single-writer: the store is not internally synchronized. Concurrency is
/// mediated above it by the transaction manager (locks) and workspaces.
class ObjectStore {
 public:
  /// `catalog` must outlive the store.
  explicit ObjectStore(const Catalog* catalog) : catalog_(catalog) {}

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  const Catalog& catalog() const { return *catalog_; }

  // ---- Classes ("sets of objects belonging to the same object type;
  //      several classes may have objects of the same type") ----
  Status CreateClass(const std::string& class_name,
                     const std::string& object_type);
  Result<std::vector<Surrogate>> ClassMembers(
      const std::string& class_name) const;
  Result<std::string> ClassType(const std::string& class_name) const;
  std::vector<std::string> ClassNames() const;

  // ---- Creation ----
  /// Creates a top-level object of `type_name`, optionally into a class.
  Result<Surrogate> CreateObject(const std::string& type_name,
                                 const std::string& class_name = "");
  /// Creates a subobject in `subclass_name` of `parent` (element type taken
  /// from the owner's schema). Fails with kInheritedReadOnly when the
  /// subclass is inherited — inherited subobjects are created in the
  /// transmitter, never in the inheritor.
  Result<Surrogate> CreateSubobject(Surrogate parent,
                                    const std::string& subclass_name);
  /// Creates a free-standing relationship object relating `participants`
  /// (role -> members). Every declared role must be present; single-valued
  /// roles take exactly one member.
  Result<Surrogate> CreateRelationship(
      const std::string& rel_type,
      const std::map<std::string, std::vector<Surrogate>>& participants);
  /// Creates a relationship object in local relationship subclass
  /// `subrel_name` of `owner`. The subrel's where-clause is checked by the
  /// constraint checker, not here.
  Result<Surrogate> CreateSubrel(
      Surrogate owner, const std::string& subrel_name,
      const std::map<std::string, std::vector<Surrogate>>& participants);
  /// Creates an inheritance-relationship object binding `inheritor` to
  /// `transmitter`. Checks: type compatibility on both ends, the inheritor's
  /// type declares `inheritor-in` this relationship type, the inheritor is
  /// not yet bound, and the binding creates no object-level cycle.
  Result<Surrogate> CreateInherRel(const std::string& inher_rel_type,
                                   Surrogate transmitter, Surrogate inheritor);

  // ---- Deletion ----
  enum class DeletePolicy {
    /// Refuse to delete a transmitter that still has bound inheritors
    /// outside the deleted subtree.
    kRestrict,
    /// Unbind such inheritors (they keep only type-level inheritance).
    kDetachInheritors,
  };
  /// Deletes `s`, cascading to all subobjects/subrels and to every
  /// relationship object referencing anything deleted.
  Status Delete(Surrogate s, DeletePolicy policy = DeletePolicy::kRestrict);
  /// Removes an inheritance binding (the inheritor becomes unbound).
  Status Unbind(Surrogate inheritor);

  // ---- Lookup ----
  Result<const DbObject*> Get(Surrogate s) const;
  DbObject* GetMutable(Surrogate s);
  bool Exists(Surrogate s) const { return objects_.count(s.id) > 0; }
  size_t size() const { return objects_.size(); }

  // ---- Paging & incremental-checkpoint plumbing (driven by Database) ----
  /// Attaches the demand-paging backend. A null entry in the object map is a
  /// paged-out object; lookups fault it back in through the pager. Clean
  /// objects may only be evicted while a pager is attached and already
  /// holds their record.
  void set_pager(const ObjectPager* pager) { pager_ = pager; }
  /// Enables dirty/deleted tracking for incremental checkpoints. Off by
  /// default so purely in-memory stores pay nothing.
  void set_dirty_tracking(bool on) { track_dirty_ = on; }

  struct CheckpointSet {
    std::set<uint64_t> dirty;
    std::set<uint64_t> deleted;
  };
  /// Claims the accumulated dirty/deleted sets for a checkpoint attempt,
  /// resetting the accumulators (mutations from here on count toward the
  /// next checkpoint).
  CheckpointSet TakeCheckpointSet();
  /// Failed-checkpoint path: folds a claimed set back into the accumulators
  /// so the next attempt re-captures it.
  void RestoreCheckpointSet(CheckpointSet set);
  /// Queues every live object as dirty. A database recovered without a
  /// checkpoint (log replay only) has nothing on pages yet; marking
  /// everything dirty makes the first checkpoint write the whole store out.
  void MarkAllDirty();

  /// Recovery: installs an object decoded from a page with its exact
  /// surrogate, clean (the page still holds it), indexes left to
  /// RepairIndexes. Bumps the surrogate allocator past it.
  Status AdoptLoadedObject(std::unique_ptr<DbObject> object);
  /// Recovery: restores the persisted surrogate allocator position.
  void SetNextSurrogate(uint64_t next);
  uint64_t next_surrogate() const { return next_surrogate_; }

  /// Evicts clean, cold, pager-backed objects until at most `budget` remain
  /// resident (second-chance sweep). Returns how many were paged out.
  size_t TrimResident(size_t budget);
  size_t resident_objects() const {
    return objects_.size() - paged_out_versions_.size();
  }
  size_t dirty_objects() const { return dirty_.size(); }
  size_t deleted_since_checkpoint() const { return deleted_.size(); }
  /// Last demand-paging failure, for diagnostics: a fault-in that fails
  /// surfaces as NotFound to the caller, with the real cause kept here.
  const Status& last_pager_error() const { return last_pager_error_; }

  // ---- Attributes ----
  /// Validates the name against the (effective) schema, rejects writes to
  /// inherited attributes, validates `v` against the attribute domain
  /// including referenced-object type restrictions, then stores locally.
  Status SetAttribute(Surrogate s, const std::string& name, Value v);
  /// Local value only (null when unset); use the inheritance manager for
  /// inheritance-aware reads. NotFound when the schema has no such attribute.
  Result<Value> GetLocalAttribute(Surrogate s, const std::string& name) const;

  // ---- Extents & indexes ----
  /// All live instances of a type (including subobjects).
  std::vector<Surrogate> Extent(const std::string& type_name) const;
  /// Relationship objects (incl. inher-rels) having `s` as a participant.
  std::vector<Surrogate> ReferencingRelationships(Surrogate s) const;
  /// Every live object in ascending surrogate order (creation order).
  std::vector<Surrogate> AllObjects() const;
  /// Inher-rel objects in which `s` is the transmitter.
  std::vector<Surrogate> InherRelsOfTransmitter(Surrogate s) const;

  /// Consistency audit of the secondary indexes (classes, per-type extents,
  /// where-used) against the primary object map, in both directions. Returns
  /// one human-readable description per inconsistency; empty means the
  /// indexes are sound. Read-only — used by the static analyzer (CAD106),
  /// never repairs.
  std::vector<std::string> AuditIndexes() const;

  /// Destructive counterpart of AuditIndexes: rebuilds the class-membership,
  /// per-type-extent and where-used indexes from the primary object map,
  /// which is authoritative (every object carries its type, class claim and
  /// participant links). Classes claimed by an object but missing from the
  /// registry are recreated with the claiming object's type; stale and
  /// duplicate index entries are dropped. `check store --repair` and the
  /// crash-recovery fsck use this as the last resort for CAD101/CAD106
  /// findings.
  void RepairIndexes();

  /// Sentinel returned by ObjectVersion for objects that are not live.
  static constexpr uint64_t kDeadVersion = ~uint64_t{0};
  /// Per-object mutation counter of `s` — bumped on every attribute,
  /// subclass/subrel and binding mutation of that object — or kDeadVersion
  /// when `s` is not live. Surrogates are never reused, so a
  /// (surrogate, version) pair identifies one observed object state; the
  /// inheritance manager's fine-grained resolution cache validates entries
  /// against these pairs.
  uint64_t ObjectVersion(Surrogate s) const {
    auto it = objects_.find(s.id);
    if (it == objects_.end()) return kDeadVersion;
    if (!it->second) return paged_out_versions_.at(s.id);
    return it->second->version();
  }

 private:
  struct ClassInfo {
    std::string object_type;
    std::vector<Surrogate> members;
  };

  DbObject* Find(Surrogate s);
  const DbObject* Find(Surrogate s) const;
  /// Materializes a paged-out object through the pager. False on failure
  /// (pager missing or I/O error — recorded in last_pager_error_).
  bool FaultIn(uint64_t id) const;
  /// Faults every paged-out object back in (index audit/rebuild walks the
  /// whole primary map).
  void EnsureAllResident() const;
  void MarkDirty(uint64_t id) {
    if (track_dirty_) dirty_.insert(id);
  }
  Result<Surrogate> NewObjectInternal(const std::string& type_name,
                                      ObjKind kind);
  Status ValidateParticipants(
      const RelTypeDef& def,
      const std::map<std::string, std::vector<Surrogate>>& participants) const;
  /// Checks kRef values (recursively) against the domain's object-type
  /// restriction using the live objects' types.
  Status ValidateRefTargets(const Value& v, const Domain& d) const;
  /// Collects `s` plus all transitively contained subobjects/subrels plus
  /// all relationship objects referencing anything collected.
  void CollectCascade(Surrogate s, std::set<uint64_t>* out) const;
  void Touch(DbObject* obj);

  const Catalog* catalog_;
  /// Primary map. A null unique_ptr is a paged-out object: live (surrogate
  /// reserved, indexed, versioned via paged_out_versions_) but resident
  /// only on its page until a lookup faults it in. Mutable because const
  /// lookups fault in.
  mutable std::map<uint64_t, std::unique_ptr<DbObject>> objects_;
  std::map<std::string, ClassInfo> classes_;
  std::map<std::string, std::vector<Surrogate>> extents_;
  std::map<uint64_t, std::set<uint64_t>> where_used_;  // target -> rel objects
  uint64_t next_surrogate_ = 1;

  // ---- Paging state ----
  const ObjectPager* pager_ = nullptr;
  bool track_dirty_ = false;
  /// Version counters of paged-out objects (exactly the null slots above),
  /// so ObjectVersion answers without a fault-in.
  mutable std::map<uint64_t, uint64_t> paged_out_versions_;
  /// Recently-looked-up ids: one sweep of second chance against trimming.
  mutable std::set<uint64_t> hot_;
  std::set<uint64_t> dirty_;    // mutated since the last checkpoint capture
  std::set<uint64_t> deleted_;  // deleted since the last checkpoint capture
  uint64_t trim_cursor_ = 0;
  mutable Status last_pager_error_;
};

}  // namespace caddb

#endif  // CADDB_STORE_STORE_H_
