#ifndef CADDB_CATALOG_CATALOG_H_
#define CADDB_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "catalog/types.h"
#include "obs/observability.h"
#include "util/result.h"
#include "util/status.h"
#include "values/domain.h"

namespace caddb {

/// The *effective* schema of an object type: its own attributes/subclasses
/// plus everything it inherits through its `inheritor-in` relationship,
/// transitively up the abstraction hierarchy. Inherited items are read-only
/// in instances.
struct EffectiveSchema {
  struct Item {
    bool inherited = false;
    /// Object type where the item is locally declared.
    std::string origin_type;
  };

  std::vector<AttributeDef> attributes;
  std::vector<SubclassDef> subclasses;
  std::vector<SubrelDef> subrels;
  /// Per attribute/subclass name: provenance. Subrels are never inherited
  /// (the paper only lists attributes and subclasses as inheritable).
  std::map<std::string, Item> provenance;

  /// Direct inheritance context (empty strings when the type is no
  /// inheritor).
  std::string inheritor_in;
  std::string transmitter_type;

  bool IsInherited(const std::string& name) const;
  const AttributeDef* FindAttribute(const std::string& name) const;
  const SubclassDef* FindSubclass(const std::string& name) const;
  const SubrelDef* FindSubrel(const std::string& name) const;
};

/// Registry of domains, object types, relationship types and inheritance
/// relationship types. Names share one namespace (a type may not collide with
/// a domain). References between definitions are resolved lazily so the DDL
/// may declare them in any order (the paper's steel example references
/// `Girder` from `AllOf_GirderIf` before defining it); `Validate()` performs
/// the whole-catalog consistency check.
class Catalog : public Domain::Resolver {
 public:
  /// `obs` (not owned) receives schema-cache counters and compute timings;
  /// null gives the catalog a private bundle (obs::SharedOrOwned).
  explicit Catalog(obs::Observability* obs = nullptr);

  /// Registry names of the schema-cache counters.
  static constexpr char kSchemaCacheHits[] =
      "caddb_catalog_schema_cache_hits_total";
  static constexpr char kSchemaCacheMisses[] =
      "caddb_catalog_schema_cache_misses_total";

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // ---- Registration ----
  Status RegisterDomain(const std::string& name, Domain domain);
  Status RegisterObjectType(ObjectTypeDef def);
  Status RegisterRelType(RelTypeDef def);
  Status RegisterInherRelType(InherRelTypeDef def);

  // ---- Lookup ----
  Result<Domain> ResolveDomain(const std::string& name) const override;
  const ObjectTypeDef* FindObjectType(const std::string& name) const;
  const RelTypeDef* FindRelType(const std::string& name) const;
  const InherRelTypeDef* FindInherRelType(const std::string& name) const;
  bool HasName(const std::string& name) const;

  std::vector<std::string> ObjectTypeNames() const;
  std::vector<std::string> RelTypeNames() const;
  std::vector<std::string> InherRelTypeNames() const;
  std::vector<std::string> DomainNames() const;

  /// Effective schema of an object type, following `inheritor-in` up the
  /// abstraction hierarchy with permeability applied at every level.
  /// Detects type-level inheritance cycles. Results are cached; any
  /// registration invalidates the cache. Returns a copy of the cached
  /// schema; prefer FindEffectiveSchema on hot paths.
  Result<EffectiveSchema> EffectiveSchemaFor(const std::string& type_name) const;

  /// Copy-free variant: a pointer into the schema cache, valid until the
  /// next registration (which clears the cache and bumps schema_epoch()).
  /// Hot paths (attribute/subclass resolution, store-side validation) use
  /// this to avoid re-copying attribute and domain vectors per lookup.
  Result<const EffectiveSchema*> FindEffectiveSchema(
      const std::string& type_name) const;

  /// Monotone counter bumped whenever a registration invalidates the schema
  /// cache. Resolution caches built on top of effective schemas record the
  /// epoch at fill time and treat an epoch change as invalidation.
  uint64_t schema_epoch() const { return schema_epoch_; }

  /// Schema-cache telemetry (FindEffectiveSchema/EffectiveSchemaFor
  /// probes): views of the bundle's caddb_catalog_schema_cache_* counters.
  uint64_t schema_cache_hits() const { return m_cache_hits_->value(); }
  uint64_t schema_cache_misses() const { return m_cache_misses_->value(); }

  /// Whole-catalog validation: every referenced domain/type/inher-rel
  /// resolves, `inheriting` lists name real (effective) items of the
  /// transmitter type, no inheritance cycles, participant types resolve.
  Status Validate() const;

 private:
  Result<EffectiveSchema> ComputeEffectiveSchema(
      const std::string& type_name, std::set<std::string>* in_progress) const;
  Status ValidateDomainTree(const Domain& d, const std::string& where) const;

  std::map<std::string, Domain> domains_;
  std::map<std::string, ObjectTypeDef> object_types_;
  std::map<std::string, RelTypeDef> rel_types_;
  std::map<std::string, InherRelTypeDef> inher_rel_types_;

  /// Bumps schema_epoch_ and drops all cached effective schemas (and the
  /// pointers FindEffectiveSchema handed out).
  void InvalidateSchemaCache();

  /// Guards schema_cache_: resolution runs concurrently
  /// from transaction threads (LockInheritanceChain), so the lazy fill in
  /// the const FindEffectiveSchema must be synchronized. Handed-out
  /// pointers stay valid without the lock — std::map nodes are stable and
  /// only DDL registration (single-threaded by contract) clears the map.
  mutable std::mutex schema_cache_mu_;
  mutable std::map<std::string, EffectiveSchema> schema_cache_;
  uint64_t schema_epoch_ = 0;

  /// Schema-cache counters plus the compute-effective-schema timing (rare:
  /// once per type per epoch).
  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  obs::Counter* m_cache_hits_;
  obs::Counter* m_cache_misses_;
  obs::Histogram* m_compute_us_;
};

}  // namespace caddb

#endif  // CADDB_CATALOG_CATALOG_H_
