#ifndef CADDB_SHELL_DISPATCHER_H_
#define CADDB_SHELL_DISPATCHER_H_

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/database.h"

namespace caddb {
namespace net {
class Server;
}  // namespace net
namespace replication {
class Follower;
class Shipper;
}  // namespace replication
namespace shell {

/// The command engine behind every caddb front end: one instance executes
/// line commands against a Database. examples/caddb_shell runs one over
/// stdin/stdout; the network server (net::Server) creates one per session,
/// so `caddb_shell --connect` speaks exactly the verbs the local shell does.
///
/// One command per line; `#` starts a comment. Values use the persist codec
/// notation (i:42, e:NAND, s:"text", R{X=i:1;Y=i:2}, ...), objects are
/// addressed as @<surrogate> (decimal digits only). Every verb is one entry
/// of the verb table in dispatcher.cc: its arity, whether it mutates (the
/// read-only gate) and its usage text live there. A line with more or fewer
/// arguments than its entry allows fails with the entry's usage.
///
/// Commands:
///   schema <<<            ... multi-line DDL until a line '>>>'
///   schema-file <path>    load DDL from a file
///   print-schema          regenerate the DDL for the whole catalog
///   class <name> <type>   create a class
///   create <type> [<class>]            -> prints @id
///   sub @<parent> <subclass>           -> prints @id
///   rel <rel-type> <role>=@id[,@id...] ...   -> prints @id
///   subrel @<owner> <subrel> <role>=@id[,...] ...  -> prints @id
///   bind @<inheritor> @<transmitter> <inher-rel-type>
///   unbind @<inheritor>
///   set @<id> <attr> <value>
///   get @<id> <attr>
///   members @<id> <subclass>
///   delete @<id> [detach]
///   check [schema|store] [--repair] [--format=json]   static integrity
///       analysis; --repair rebuilds the store's secondary indexes from the
///       primary object map when the store pass finds errors, then re-checks
///   check disk [--format=json]   offline disk verification (CAD3xx) of the
///       database's own directory, read-only under a checkpoint pause; in
///       follower mode it audits the replica directory. `--fix` is refused
///       live — use `caddb_shell --check <dir> --fix` on a closed database
///   check @<id> | check-deep @<id> | check-all | violations
///   holds @<id> <expression...>
///   expand @<id> [depth]  |  expand-dot @<id> [depth]   (graphviz)
///   components @<id> | where-used @<id>
///   pending @<id>         change log of an inheritor's binding
///   ack @<id>             acknowledge it
///   select <class-or-type> [<path>...] [where <expr...>]
///   stats [--format=json]  population/cache report; json adds the full
///       metrics snapshot
///   metrics [--format=json|prom]   every registered counter/gauge/histogram
///       (prom is Prometheus text exposition 0.0.4)
///   metrics --watch [--window=MS] [--format=json]   counter deltas and
///       per-second rates over the metrics-history ring (a server's
///       background snapshotter feeds it; standalone shells take two inline
///       samples ~100ms apart)
///   fault list [--format=json]   every failpoint site with its armed spec
///       and hit/fired counters
///   fault arm <site> <kind>[=value] [--skip=N] [--every=N] [--times=N]
///       [--p=F] [--seed=S]   arm a failpoint (kinds: error[=msg], abort,
///       delay=<dur>, cut=<bytes>, drop, truncate, reset, corrupt,
///       duplicate, reorder, stall); fires export as
///       caddb_fault_fired_total{site="..."} in `metrics` and emit kWarn
///       "fault" events into the log
///   fault disarm <site>|--all
///   trace [on|off|clear|threshold <us>|dump [--slow-only] [--format=json]]
///       operation tracing: RAII spans into a bounded ring; spans over the
///       threshold are retained separately and shown by --slow-only; every
///       span carries its 16-hex-digit distributed trace id
///   log                   event-log status (level, counts, sink state)
///   log tail [n] [--format=json]   newest n structured events (default 20)
///   log level <debug|info|warn|error|off>   runtime level change
///   cache [off|fine|on|reset-stats]   resolution-cache mode & stats; the
///       mode is the database's, so it changes every session
///   dump <path> | load <path>
///   wal status [--format=json]   log/recovery telemetry (durable only):
///       dir, sync policy, last/synced lsn, live segment, the log's counters
///       (records, commit points, bytes, fsyncs, segments created — the
///       caddb_wal_* registry counters) and the last recovery report
///   checkpoint            snapshot + truncate the log (durable only)
///   storage status [--format=json]   paged-store/buffer-pool telemetry
///   server status [--format=json]    network listener telemetry (sessions,
///       queue depth, sheds, bytes) — needs an attached net::Server
///   ship [<replica-dir>]  ship checkpoint + log to a replica directory
///       (the directory sticks after the first use; plain `ship` re-ships)
///   replica status [--format=json]   replication state of this database
///   replica poll          one follower catch-up cycle (follower mode)
///   replica promote       promote the follower to a writable primary
///   replica reseed        accept the primary's current history after a
///       quarantine: prints the verdict, re-stages from the manifest, and
///       clears QUARANTINE only when the rebuild succeeds
///   echo <text...>
///   quit | exit
///
/// A dispatcher carries per-conversation state (the multi-line `schema <<<`
/// continuation, the sticky ship target, the error count), so two sessions
/// never share one. It is not internally synchronized: the server
/// serializes ExecuteLine calls across sessions under its execution lock.
class Dispatcher {
 public:
  /// `db` is not owned and must outlive the dispatcher.
  explicit Dispatcher(Database* db);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Follower mode: every command sees the follower's current read-only
  /// database (re-fetched per line — each applying poll replaces it),
  /// `replica poll|promote` drive it. Not owned; must outlive the
  /// dispatcher or be detached by promotion.
  void AttachFollower(replication::Follower* follower) {
    follower_ = follower;
  }

  /// Lets `server status` report on the listener serving this dispatcher
  /// (or one running in the same process). Not owned; must outlive the
  /// dispatcher.
  void AttachServer(net::Server* server) { server_ = server; }

  /// Read-only role: a line whose verb-table entry `mutates` for it fails
  /// with kPermissionDenied; the table is the only list of writes. This is
  /// how a network server serves a writable primary to read-only sessions
  /// and locks down follower-serving sessions regardless of the replica
  /// database's own read-only enforcement.
  void set_read_only(bool read_only) { read_only_ = read_only; }

  /// Repoints the dispatcher at a different database (the server does this
  /// when a follower rebuild replaced the instance). Not owned.
  void set_db(Database* db) { db_ = db; }

  /// Executes one command line; output (including error reports) goes to
  /// `out`. Returns false when the command asked to quit. Errors are
  /// reported inline, never thrown or returned: the caller always
  /// continues.
  bool ExecuteLine(const std::string& line, std::ostream& out);

  /// Reads and executes commands from `in` until EOF or `quit`. When
  /// `prompt` is set, writes "caddb> " (or "  ... " inside a schema block)
  /// before each line.
  void Run(std::istream& in, std::ostream& out, bool prompt = false);

  /// Number of commands that reported an error so far. This is the exit-code
  /// contract: caddb_shell exits non-zero iff it is non-zero, and every
  /// `check` variant feeds it — `check`/`check schema`/`check store` on
  /// error-severity findings, `check disk` on any CAD3xx error,
  /// `check @id`/`check-deep`/`check-all` on a violated constraint, and
  /// `violations` on a non-empty violation list.
  size_t error_count() const { return error_count_; }

  /// The verb table's top-level names, in table order.
  static std::vector<std::string> VerbNames();

 private:
  struct Verb;  // one verb-table entry (dispatcher.cc)
  struct Call;  // a matched line as its handler sees it
  static std::span<const Verb> Verbs();

  bool in_schema_block_ = false;
  std::string schema_buffer_;

  Database* db_;
  size_t error_count_ = 0;
  bool read_only_ = false;

  // Replication wiring. The shipper is created by the first `ship <dir>`;
  // the follower is attached by follower mode; `replica promote` parks the
  // promoted (owned) database here and detaches the follower.
  std::unique_ptr<replication::Shipper> shipper_;
  replication::Follower* follower_ = nullptr;
  std::unique_ptr<Database> promoted_;
  net::Server* server_ = nullptr;
};

}  // namespace shell
}  // namespace caddb

#endif  // CADDB_SHELL_DISPATCHER_H_
