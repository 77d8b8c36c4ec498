#ifndef CADDB_SHELL_SHELL_H_
#define CADDB_SHELL_SHELL_H_

#include <iosfwd>
#include <string>

#include "shell/dispatcher.h"

namespace caddb {
namespace net {
class Server;
}  // namespace net
namespace replication {
class Follower;
}  // namespace replication
namespace shell {

/// Line-command interpreter over a Database — the scripting surface behind
/// examples/caddb_shell and a convenient integration-test driver. One
/// command per line; `#` starts a comment. Values use the persist codec
/// notation (i:42, e:NAND, s:"text", R{X=i:1;Y=i:2}, ...), objects are
/// addressed as @<surrogate>.
///
/// The Shell is a REPL wrapper around shell::Dispatcher, which owns the
/// whole verb set; net::Server creates one Dispatcher per connection, so
/// the commands below round-trip unchanged over `caddb_shell --connect`.
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
///   cache [off|fine|on|reset-stats]   resolution-cache mode & stats
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
///   quit
class Shell {
 public:
  /// `db` is not owned and must outlive the shell.
  explicit Shell(Database* db);

  ~Shell();

  Shell(const Shell&) = delete;
  Shell& operator=(const Shell&) = delete;

  /// Puts the shell in follower mode: every command sees the follower's
  /// current read-only database (re-fetched per line — each applying poll
  /// replaces it), `replica poll|promote` drive it. Not owned; must
  /// outlive the shell or be detached by promotion.
  void AttachFollower(replication::Follower* follower);

  /// Lets `server status` report on a listener running in this process.
  /// Not owned; must outlive the shell.
  void AttachServer(net::Server* server);

  /// Executes one command line; output (including error reports) goes to
  /// `out`. Returns false when the command asked to quit. Errors are
  /// reported inline, never thrown or returned: the shell always continues.
  bool ExecuteLine(const std::string& line, std::ostream& out);

  /// Reads and executes commands from `in` until EOF or `quit`. When
  /// `prompt` is set, writes "caddb> " before each line.
  void Run(std::istream& in, std::ostream& out, bool prompt = false);

  /// Number of commands that reported an error so far. This is the shell's
  /// exit-code contract: caddb_shell exits non-zero iff it is non-zero, and
  /// every `check` variant feeds it — `check`/`check schema`/`check store`
  /// on error-severity findings, `check disk` on any CAD3xx error,
  /// `check @id`/`check-deep`/`check-all` on a violated constraint, and
  /// `violations` on a non-empty violation list.
  size_t error_count() const { return dispatcher_.error_count(); }

 private:
  Dispatcher dispatcher_;
};

}  // namespace shell
}  // namespace caddb

#endif  // CADDB_SHELL_SHELL_H_
