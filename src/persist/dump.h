#ifndef CADDB_PERSIST_DUMP_H_
#define CADDB_PERSIST_DUMP_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/database.h"

namespace caddb {
namespace persist {

/// Database dump/restore in a line-oriented text format:
///
///   caddb-dump 1
///   schema <byte-count>
///   <DDL text, regenerated by SchemaPrinter>
///   class <name> <object-type>
///   O <id> <type>                       top-level object
///   O <id> <type> P <parent> <subclass> subobject
///   O <id> <type> C <class>             top-level object in a class
///   R <id> <type> [P <parent> <subrel>] role <role> <m>... ;  relationship
///   I <id> <type> <transmitter> <inheritor>                   binding
///   design <name> <object-type>         version-manager design object
///   version <design> <id> <state> [<pred-id>...]
///   vdefault <design> <id>
///   generic <inheritor-id> <design> <inher-rel-type> [<resolved-id>]
///   A <id> <attr> <encoded-value>       attribute (after all objects)
///   end
///
/// Restore replays the dump through the public API in surrogate order, so
/// every structural rule (schema, domains, participants, binding and cycle
/// checks) is re-validated on load. Surrogates are re-assigned; references
/// inside attribute values are remapped; generic-binding ids are
/// re-assigned. Not persisted: notification logs, locks and workspaces
/// (transient by design).
class Dumper {
 public:
  /// Serializes schema + classes + all objects of `db`.
  static Result<std::string> Dump(const Database& db);

  /// Loads a dump into `db`, which must be empty (no schema, no objects).
  /// Every error Status is annotated with the 1-based dump line it was
  /// raised on ("dump line 17: ...").
  static Status Load(const std::string& dump, Database* db);
};

/// Meta snapshot for checkpoints: everything that does
/// NOT live on pages — schema DDL, the class registry, the version
/// manager's designs/version-graphs/generic-bindings, and the surrogate
/// allocator position. Object/relationship/binding records and attribute
/// values are absent: at load time they already sit in the store, adopted
/// from the page file with their original surrogates. Format:
///
///   caddb-meta 1
///   schema <byte-count>
///   <DDL text>
///   class <name> <object-type>
///   design/version/vdefault/generic lines (as in the full dump, but the
///     surrogate ids are the store's real ids, not remapped)
///   nextsur <N>
///   end
Result<std::string> DumpMeta(const Database& db);

/// Applies a meta snapshot to `db`, whose store must already hold the
/// adopted page objects (ids referenced by version lines are validated
/// against it). Installs schema, classes, version state and the surrogate
/// allocator; class/extent/where-used memberships are left to
/// ObjectStore::RepairIndexes.
Status LoadMeta(const std::string& meta, Database* db);

/// Remaps every kRef inside `v` (recursively) through `mapping` (old id ->
/// new id); a reference to an unmapped surrogate fails with kParseError.
/// Shared by dump loading and WAL replay.
Result<Value> RemapValueRefs(const Value& v,
                             const std::map<uint64_t, uint64_t>& mapping);

/// Dump of `db` normalized for equality comparison: the dump is loaded into
/// a fresh database and re-dumped, so surrogate ids reflect only creation
/// order, not the process's id-allocation history. Two databases holding
/// the same logical state — however they got there (live mutation, crash
/// recovery, log shipping) — produce byte-identical canonical dumps. The
/// replication tests' oracle comparison is built on this.
Result<std::string> CanonicalDump(const Database& db);

}  // namespace persist
}  // namespace caddb

#endif  // CADDB_PERSIST_DUMP_H_
