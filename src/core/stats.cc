#include "core/stats.h"

#include "obs/exposition.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace caddb {

DatabaseStats DatabaseStats::Collect(const Database& db) {
  DatabaseStats stats;
  const ObjectStore& store = db.store();
  for (Surrogate s : store.AllObjects()) {
    Result<const DbObject*> obj = store.Get(s);
    if (!obj.ok()) continue;
    ++stats.total_objects;
    ++stats.per_type[(*obj)->type_name()];
    switch ((*obj)->kind()) {
      case ObjKind::kObject:
        ++stats.plain_objects;
        break;
      case ObjKind::kRelationship:
        ++stats.relationship_objects;
        break;
      case ObjKind::kInherRel:
        ++stats.inher_rel_objects;
        break;
    }
    if ((*obj)->IsSubobject()) {
      ++stats.subobjects;
    } else {
      ++stats.top_level_objects;
    }
    if ((*obj)->bound_inher_rel().valid()) {
      ++stats.bound_inheritors;
    }
    if ((*obj)->kind() == ObjKind::kInherRel) {
      stats.pending_notifications += db.notifications().PendingFor(s).size();
    }
  }
  const InheritanceManager& inheritance = db.inheritance();
  stats.cache_entries = inheritance.cache_entries();
  const ReplicaInfo& replica = db.replica_info();
  stats.is_replica = replica.is_replica;
  stats.replica_state = replica.state;
  stats.replica_generation = replica.generation;
  stats.replica_manifest_seq = replica.manifest_seq;
  stats.replay_lsn = replica.replay_lsn;
  stats.shipped_lsn = replica.shipped_lsn;
  stats.replica_lag = replica.lag();
  stats.classes = store.ClassNames().size();
  stats.object_types = db.catalog().ObjectTypeNames().size();
  stats.rel_types = db.catalog().RelTypeNames().size();
  stats.inher_rel_types = db.catalog().InherRelTypeNames().size();
  stats.domains = db.catalog().DomainNames().size();
  stats.metrics = db.observability()->metrics.Snapshot();
  return stats;
}

std::string DatabaseStats::ToString() const {
  const auto count = [this](const char* name) {
    return std::to_string(metrics.CounterValue(name));
  };
  std::string out;
  out += "objects:          " +
         FormatWithCommas(static_cast<int64_t>(total_objects)) + " (" +
         std::to_string(plain_objects) + " plain, " +
         std::to_string(relationship_objects) + " relationships, " +
         std::to_string(inher_rel_objects) + " inheritance relationships)\n";
  out += "containment:      " + std::to_string(top_level_objects) +
         " top-level, " + std::to_string(subobjects) + " subobjects\n";
  out += "bound inheritors: " + std::to_string(bound_inheritors) + "\n";
  out += "pending changes:  " + std::to_string(pending_notifications) + "\n";
  out += "resolution cache: " + std::to_string(cache_entries) + " entries; " +
         count(InheritanceManager::kCacheHits) + " hits, " +
         count(InheritanceManager::kCacheMisses) + " misses, " +
         count(InheritanceManager::kCacheInvalidations) + " invalidations, " +
         count(InheritanceManager::kCacheEvictions) + " evictions\n";
  out += "schema cache:     " + count(Catalog::kSchemaCacheHits) + " hits, " +
         count(Catalog::kSchemaCacheMisses) + " misses\n";
  out += "schema analyses:  " + count(Database::kSchemaAnalysesRun) +
         " run, " + count(Database::kSchemaAnalysesSkipped) +
         " skipped (epoch unchanged)\n";
  out += "schema:           " + std::to_string(object_types) +
         " object types, " + std::to_string(rel_types) + " rel types, " +
         std::to_string(inher_rel_types) + " inher-rel types, " +
         std::to_string(domains) + " domains, " + std::to_string(classes) +
         " classes\n";
  if (is_replica) {
    out += "replica:          " + replica_state + "; generation " +
           std::to_string(replica_generation) + ", manifest seq " +
           std::to_string(replica_manifest_seq) + ", replay lsn " +
           std::to_string(replay_lsn) + " / shipped lsn " +
           std::to_string(shipped_lsn) + " (lag " +
           std::to_string(replica_lag) + ")\n";
  }
  out += "population by type:\n";
  for (const auto& [type, count] : per_type) {
    out += "  " + type + ": " + std::to_string(count) + "\n";
  }
  return out;
}

std::string DatabaseStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("objects");
  w.BeginObject();
  w.Field("total", static_cast<uint64_t>(total_objects));
  w.Field("plain", static_cast<uint64_t>(plain_objects));
  w.Field("relationships", static_cast<uint64_t>(relationship_objects));
  w.Field("inher_rels", static_cast<uint64_t>(inher_rel_objects));
  w.Field("top_level", static_cast<uint64_t>(top_level_objects));
  w.Field("subobjects", static_cast<uint64_t>(subobjects));
  w.Field("bound_inheritors", static_cast<uint64_t>(bound_inheritors));
  w.EndObject();
  w.Key("per_type");
  w.BeginObject();
  for (const auto& [type, count] : per_type) {
    w.Field(type, static_cast<uint64_t>(count));
  }
  w.EndObject();
  w.Field("pending_notifications",
          static_cast<uint64_t>(pending_notifications));
  w.Key("resolution_cache");
  w.BeginObject();
  w.Field("entries", static_cast<uint64_t>(cache_entries));
  w.Field("hits", metrics.CounterValue(InheritanceManager::kCacheHits));
  w.Field("misses", metrics.CounterValue(InheritanceManager::kCacheMisses));
  w.Field("invalidations",
          metrics.CounterValue(InheritanceManager::kCacheInvalidations));
  w.Field("evictions",
          metrics.CounterValue(InheritanceManager::kCacheEvictions));
  w.EndObject();
  w.Key("schema_cache");
  w.BeginObject();
  w.Field("hits", metrics.CounterValue(Catalog::kSchemaCacheHits));
  w.Field("misses", metrics.CounterValue(Catalog::kSchemaCacheMisses));
  w.EndObject();
  w.Key("schema_analyses");
  w.BeginObject();
  w.Field("run", metrics.CounterValue(Database::kSchemaAnalysesRun));
  w.Field("skipped", metrics.CounterValue(Database::kSchemaAnalysesSkipped));
  w.EndObject();
  w.Key("schema");
  w.BeginObject();
  w.Field("object_types", static_cast<uint64_t>(object_types));
  w.Field("rel_types", static_cast<uint64_t>(rel_types));
  w.Field("inher_rel_types", static_cast<uint64_t>(inher_rel_types));
  w.Field("domains", static_cast<uint64_t>(domains));
  w.Field("classes", static_cast<uint64_t>(classes));
  w.EndObject();
  if (is_replica) {
    w.Key("replica");
    w.BeginObject();
    w.Field("state", replica_state);
    w.Field("generation", replica_generation);
    w.Field("manifest_seq", replica_manifest_seq);
    w.Field("replay_lsn", replay_lsn);
    w.Field("shipped_lsn", shipped_lsn);
    w.Field("lag", replica_lag);
    w.EndObject();
  }
  w.Key("metrics");
  obs::WriteMetricsJson(metrics, &w);
  w.EndObject();
  return w.str();
}

}  // namespace caddb
