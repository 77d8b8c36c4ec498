#ifndef CADDB_CORE_STATS_H_
#define CADDB_CORE_STATS_H_

#include <map>
#include <string>

#include "core/database.h"
#include "obs/metrics.h"

namespace caddb {

/// Point-in-time introspection over a database: object population per type
/// and kind, containment/binding structure, notification backlog. Used by
/// the examples' final reports and by operational tooling.
struct DatabaseStats {
  size_t total_objects = 0;
  size_t plain_objects = 0;
  size_t relationship_objects = 0;
  size_t inher_rel_objects = 0;
  size_t subobjects = 0;
  size_t top_level_objects = 0;
  size_t bound_inheritors = 0;
  size_t classes = 0;
  size_t object_types = 0;
  size_t rel_types = 0;
  size_t inher_rel_types = 0;
  size_t domains = 0;
  size_t pending_notifications = 0;
  std::map<std::string, size_t> per_type;

  // Resolution-cache telemetry: the inheritance manager's memoization cache
  // (mode + live entries). Its hit/miss/invalidation counts, the catalog's
  // effective-schema cache counts and the memoized-DDL-analysis counts are
  // read from `metrics` below, the one place they are counted.
  std::string cache_mode;
  size_t cache_entries = 0;

  // Replication telemetry (meaningful only when is_replica: the database is
  // the read-only product of a replication::Follower).
  bool is_replica = false;
  std::string replica_state;
  uint64_t replica_generation = 0;
  uint64_t replica_manifest_seq = 0;
  uint64_t replay_lsn = 0;
  uint64_t shipped_lsn = 0;
  uint64_t replica_lag = 0;

  // Point-in-time copy of the database's metrics registry (every counter,
  // gauge and histogram the subsystems registered). ToString prints only
  // the curated cache and analysis counters from it; ToJson emits it in
  // full, so `stats --format=json` is a superset of `metrics`.
  obs::MetricsSnapshot metrics;

  static DatabaseStats Collect(const Database& db);

  /// Multi-line human-readable report.
  std::string ToString() const;

  /// The whole report as one JSON object, metrics snapshot included
  /// (same renderer the shell's `metrics --format=json` uses).
  std::string ToJson() const;
};

}  // namespace caddb

#endif  // CADDB_CORE_STATS_H_
