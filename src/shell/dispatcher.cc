#include "shell/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <fstream>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "analysis/disk_verifier.h"
#include "core/stats.h"
#include "ddl/printer.h"
#include "fault/failpoint.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/history.h"
#include "obs/log.h"
#include "persist/dump.h"
#include "persist/value_codec.h"
#include "query/report.h"
#include "replication/follower.h"
#include "replication/shipper.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "wal/log_io.h"
#include "wal/wal.h"

namespace caddb {
namespace shell {

using Args = std::span<const std::string>;

/// Arity bound of a variadic tail (`set`'s value, `echo`'s text, ...).
constexpr size_t kMany = SIZE_MAX;

/// One verb-table entry. A verb with subverbs (`trace on`, `replica poll`)
/// points at a second table of the same shape: a line whose first argument
/// names a subverb runs that entry on the remaining arguments, any other
/// line runs the verb's own entry.
struct Dispatcher::Verb {
  std::string_view name;
  size_t min_args;  // arguments after the name (and subverb)
  size_t max_args;
  bool (*mutates)(Args);   // true: refused on a read-only session
  std::string_view usage;  // the text of every argument error
  Status (*run)(Call&);    // nullptr ends the session (quit, exit)
  const Verb* subverbs = nullptr;
  size_t subverb_count = 0;
};

/// A matched line as its handler sees it.
struct Dispatcher::Call {
  Dispatcher& self;
  const Verb& verb;  // the entry that matched (a subverb when one was named)
  Args args;         // the tokens after the verb (and subverb)
  std::ostream& out;

  Database& db() const { return *self.db_; }
  obs::Observability& obs() const { return *self.db_->observability(); }
  Status Usage() const {
    return InvalidArgument("use: " + std::string(verb.usage));
  }
  /// Prints "ok" when `s` is; passes `s` through.
  Status Ok(Status s = OkStatus()) const {
    if (s.ok()) out << "ok\n";
    return s;
  }
  /// Prints the new object's @id when `s` holds one.
  Status Id(const Result<Surrogate>& s) const {
    if (s.ok()) out << "@" << s->id << "\n";
    return s.status();
  }
  /// The arguments from `start` on, rejoined by single spaces.
  std::string Rest(size_t start) const {
    return Join(std::vector<std::string>(args.begin() + start, args.end()),
                " ");
  }
  /// The arguments from `start` on may only be `--format=json|text`;
  /// true selects json.
  Result<bool> Json(size_t start = 0) const;
  /// The `X status [--format=json]` shape of wal, storage and server.
  Result<bool> StatusForm() const {
    if (args[0] != "status") return Usage();
    return Json(1);
  }
  /// `replica poll|promote|reseed` drive an attached follower.
  Result<replication::Follower*> Follower() const {
    if (self.follower_ != nullptr) return self.follower_;
    return FailedPrecondition("replica " + std::string(verb.name) +
                              " needs follower mode (caddb_shell --follow)");
  }
};

namespace {

/// Splits a command line into whitespace-separated tokens, keeping quoted
/// spans (for s:"..." values) intact.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (c == '"' && (i == 0 || line[i - 1] != '\\')) {
      in_quotes = !in_quotes;
      current.push_back(c);
    } else if (!in_quotes && std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        out.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

Result<Surrogate> ParseRef(const std::string& token) {
  if (token.size() < 2 || token[0] != '@') {
    return InvalidArgument("expected @<surrogate>, got '" + token + "'");
  }
  Result<uint64_t> id =
      ParseUint(std::string_view(token).substr(1), "surrogate");
  if (!id.ok()) return InvalidArgument("bad surrogate '" + token + "'");
  return Surrogate(*id);
}

/// `role=@1,@2 ...` participant syntax.
Result<std::map<std::string, std::vector<Surrogate>>> ParseRoles(Args tokens) {
  std::map<std::string, std::vector<Surrogate>> participants;
  for (const std::string& token : tokens) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return InvalidArgument("expected <role>=@id[,@id...], got '" + token +
                             "'");
    }
    std::vector<Surrogate> members;
    for (const std::string& part : Split(token.substr(eq + 1), ',')) {
      CADDB_ASSIGN_OR_RETURN(Surrogate s, ParseRef(part));
      members.push_back(s);
    }
    participants[token.substr(0, eq)] = std::move(members);
  }
  return participants;
}

/// True when `token` is `--format=json` or `--format=text`; sets `*json`.
bool FormatFlag(std::string_view token, bool* json) {
  if (token != "--format=json" && token != "--format=text") return false;
  *json = token == "--format=json";
  return true;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFound("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// The binding of an inheritor named by `token` (`pending`, `ack`).
Result<Surrogate> BindingOf(Database& db, const std::string& token) {
  CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(token));
  Result<Surrogate> binding = db.inheritance().BindingOf(target);
  if (!binding.ok() || !binding->valid()) {
    return FailedPrecondition("@" + std::to_string(target.id) +
                              " is not bound");
  }
  return *binding;
}

Status Expand(Database& db, Args args, bool dot, std::ostream& out) {
  CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(args[0]));
  ExpandOptions options;
  if (args.size() > 1) {
    CADDB_ASSIGN_OR_RETURN(uint64_t depth, ParseUint(args[1], "depth",
                                                     INT_MAX));
    options.max_depth = static_cast<int>(depth);
  }
  auto gate = db.LockStore();
  CADDB_ASSIGN_OR_RETURN(ExpansionNode tree,
                         db.expander().Expand(target, options));
  out << (dot ? Expander::RenderDot(tree) : Expander::Render(tree));
  return OkStatus();
}

/// `check [schema|store] [--repair] [--format=json]`: static integrity
/// analysis. Findings are output, not a failed command; error-severity
/// findings still count toward the exit code (`*findings`).
Status CheckAnalysis(Database& db, Args args, std::ostream& out,
                     size_t* findings) {
  bool schema = true;
  bool store = true;
  bool json = false;
  bool repair = false;
  for (const std::string& arg : args) {
    if (arg == "schema") {
      store = false;
    } else if (arg == "store") {
      schema = false;
    } else if (arg == "--repair") {
      repair = true;
    } else if (!FormatFlag(arg, &json)) {
      return InvalidArgument(
          "unknown check argument '" + arg +
          "' (expected schema, store, --repair, or --format=json)");
    }
  }
  if (repair && !store) {
    return InvalidArgument("--repair only applies to the store pass");
  }
  auto gate = db.LockStore();
  auto analyze = [&] {
    analysis::DiagnosticBag bag;
    if (schema) bag.Merge(db.CheckSchema());
    if (store) bag.Merge(db.CheckStore());
    bag.Sort();
    return bag;
  };
  analysis::DiagnosticBag bag = analyze();
  const bool repaired = repair && bag.HasErrors();
  if (repaired) {
    // Rebuild the secondary indexes from the primary object map and see
    // whether that cleared the findings.
    db.store().RepairIndexes();
    bag = analyze();
  }
  if (json) {
    out << bag.RenderJson() << "\n";
  } else {
    out << bag.RenderText();
    if (repaired) out << "check: indexes rebuilt (--repair)\n";
    out << "check: " << bag.Summary() << "\n";
  }
  if (bag.HasErrors()) ++*findings;
  return OkStatus();
}

Status Select(Database& db, Args args, std::ostream& out) {
  std::vector<std::string> paths;
  expr::ExprPtr predicate;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] != "where") {
      paths.push_back(args[i]);
      continue;
    }
    if (i + 1 == args.size()) {
      return InvalidArgument("select: `where` needs an expression");
    }
    std::vector<std::string> rest(args.begin() + i + 1, args.end());
    CADDB_ASSIGN_OR_RETURN(
        predicate, ddl::Parser::ParseConstraintExpression(Join(rest, " ")));
    break;
  }
  // Classes take precedence over type extents.
  auto gate = db.LockStore();
  Result<std::vector<Surrogate>> hits =
      db.query().SelectFromClass(args[0], predicate);
  if (!hits.ok() && hits.status().code() == Code::kNotFound) {
    hits = db.query().SelectFromExtent(args[0], predicate);
  }
  if (!hits.ok()) return hits.status();
  CADDB_ASSIGN_OR_RETURN(Table table,
                         Project(db.inheritance(), *hits, paths));
  out << table.ToString();
  out << "(" << table.rows.size() << " rows)\n";
  return OkStatus();
}

void RenderMetrics(const obs::MetricsSnapshot& snapshot, bool prom, bool json,
                   std::ostream& out) {
  if (prom || json) {
    out << (prom ? obs::RenderPrometheus(snapshot)
                 : obs::RenderMetricsJson(snapshot) + "\n");
    return;
  }
  for (const obs::CounterSample& c : snapshot.counters) {
    out << c.name << " " << c.value << "\n";
  }
  for (const obs::GaugeSample& g : snapshot.gauges) {
    out << g.name << " " << g.value << "\n";
  }
  for (const obs::HistogramSample& h : snapshot.histograms) {
    out << h.name << " count=" << h.data.count
        << " p50=" << static_cast<uint64_t>(h.data.Percentile(0.50))
        << " p95=" << static_cast<uint64_t>(h.data.Percentile(0.95))
        << " p99=" << static_cast<uint64_t>(h.data.Percentile(0.99)) << "\n";
  }
}

void RenderRateWindow(const obs::RateWindow& window, bool json,
                      std::ostream& out) {
  if (json) {
    JsonWriter w;
    obs::WriteRateWindowJson(window, &w);
    out << w.str() << "\n";
    return;
  }
  out << "window:     " << (window.elapsed_us / 1000) << "ms ("
      << window.samples << " sample(s) in ring)\n";
  for (const obs::CounterRate& rate : window.rates) {
    char per_sec[32];
    std::snprintf(per_sec, sizeof(per_sec), "%.1f", rate.per_sec);
    out << rate.name << " +" << rate.delta << " (" << per_sec << "/s)\n";
  }
  for (const obs::GaugeSample& g : window.gauges) {
    out << g.name << " = " << g.value << "\n";
  }
}

void RenderFaults(bool json, std::ostream& out) {
  const std::vector<fault::SiteInfo> sites =
      fault::FailpointRegistry::Global().List();
  if (!json) {
    for (const fault::SiteInfo& site : sites) {
      out << site.name << " " << site.spec << " hits=" << site.hits
          << " fired=" << site.fired << "\n";
    }
    return;
  }
  JsonWriter w;
  w.BeginArray();
  for (const fault::SiteInfo& site : sites) {
    w.BeginObject();
    w.Field("site", site.name);
    w.Field("armed", site.armed);
    w.Field("spec", site.spec);
    w.Field("hits", site.hits);
    w.Field("fired", site.fired);
    w.EndObject();
  }
  w.EndArray();
  out << w.str() << "\n";
}

void RenderSpans(const std::vector<obs::SpanRecord>& spans, bool slow_only,
                 bool json, std::ostream& out) {
  if (json) {
    JsonWriter w;
    w.BeginArray();
    for (const obs::SpanRecord& span : spans) {
      w.BeginObject();
      w.Field("id", span.id);
      w.Field("parent", span.parent_id);
      w.Field("trace_id", obs::TraceIdHex(span.trace_id));
      w.Field("name", span.name);
      w.Field("start_us", span.start_us);
      w.Field("duration_us", span.duration_us);
      w.Field("slow", span.slow);
      w.Key("attributes");
      w.BeginObject();
      for (const auto& [key, value] : span.attributes) w.Field(key, value);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    out << w.str() << "\n";
    return;
  }
  for (const obs::SpanRecord& span : spans) {
    out << "#" << span.id;
    if (span.parent_id != 0) out << " (in #" << span.parent_id << ")";
    out << " [" << obs::TraceIdHex(span.trace_id) << "]";
    out << " " << span.name << " " << span.duration_us << "us";
    if (span.slow) out << " SLOW";
    for (const auto& [key, value] : span.attributes) {
      out << " " << key << "=" << value;
    }
    out << "\n";
  }
  out << "(" << spans.size() << (slow_only ? " slow" : "") << " span(s))\n";
}

void RenderLogTail(const std::vector<obs::LogRecord>& records, bool json,
                   std::ostream& out) {
  if (json) {
    JsonWriter w;
    w.BeginArray();
    for (const obs::LogRecord& record : records) {
      obs::WriteLogRecordJson(record, &w);
    }
    w.EndArray();
    out << w.str() << "\n";
    return;
  }
  for (const obs::LogRecord& record : records) {
    out << record.seq << " " << obs::LogLevelName(record.level) << " ["
        << record.subsystem << "] " << record.message;
    if (record.trace_id != 0) {
      out << " trace=" << obs::TraceIdHex(record.trace_id) << "/"
          << record.span_id;
    }
    out << "\n";
  }
  out << "(" << records.size() << " event(s))\n";
}

Status WalStatus(Database& db, bool json, std::ostream& out) {
  if (!db.durable()) {
    return FailedPrecondition(
        "database is not durable (opened without a log directory)");
  }
  if (!json) {
    out << "log:        " << db.wal()->stats().ToString() << "\n";
    out << "recovery:   " << db.recovery_report().ToString() << "\n";
    return OkStatus();
  }
  const wal::WalStats stats = db.wal()->stats();
  const wal::RecoveryReport& recovery = db.recovery_report();
  JsonWriter w;
  w.BeginObject();
  w.Key("log");
  w.BeginObject();
  w.Field("dir", stats.dir);
  w.Field("sync_policy", wal::SyncPolicyName(stats.policy));
  w.Field("last_lsn", stats.last_lsn);
  w.Field("synced_lsn", stats.synced_lsn);
  w.Field("segment_start_lsn", stats.segment_start_lsn);
  w.Field("records_appended", stats.records_appended);
  w.Field("commits", stats.commits);
  w.Field("fsyncs", stats.fsyncs);
  w.Field("segments_created", stats.segments_created);
  w.Field("bytes_appended", stats.bytes_appended);
  w.EndObject();
  w.Key("recovery");
  w.BeginObject();
  w.Field("checkpoint_lsn", recovery.checkpoint_lsn);
  w.Field("generation", recovery.generation);
  w.Field("segments_scanned", recovery.segments_scanned);
  w.Field("records_scanned", recovery.records_scanned);
  w.Field("records_applied", recovery.records_applied);
  w.Field("txns_committed", recovery.txns_committed);
  w.Field("txns_discarded", recovery.txns_discarded);
  w.Field("last_lsn", recovery.last_lsn);
  w.Field("tail_error", recovery.tail_error);
  w.Field("fsck_ran", recovery.fsck_ran);
  w.Field("repaired", recovery.repaired);
  w.Field("applied_fingerprint",
          static_cast<uint64_t>(recovery.applied_fingerprint));
  w.EndObject();
  w.EndObject();
  out << w.str() << "\n";
  return OkStatus();
}

Status StorageStatus(const Database::StorageStats& stats, bool json,
                     std::ostream& out) {
  if (!stats.paged) {
    return FailedPrecondition(
        "database has no paged store (opened without a directory)");
  }
  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Field("objects", stats.heap.objects);
    w.Field("resident_objects", stats.resident_objects);
    w.Field("dirty_objects", stats.dirty_objects);
    w.Field("data_pages", stats.heap.data_pages);
    w.Field("overflow_pages", stats.heap.overflow_pages);
    w.Field("page_writes", stats.page_writes);
    w.Key("pool");
    w.BeginObject();
    w.Field("capacity", stats.pool.capacity);
    w.Field("pages", stats.pool.pages);
    w.Field("pinned", stats.pool.pinned);
    w.Field("dirty", stats.pool.dirty);
    w.Field("hits", stats.pool.hits);
    w.Field("misses", stats.pool.misses);
    w.Field("evictions", stats.pool.evictions);
    w.Field("dirty_evictions", stats.pool.dirty_evictions);
    w.Field("flushes", stats.pool.flushes);
    w.Field("overcommits", stats.pool.overcommits);
    w.EndObject();
    w.EndObject();
    out << w.str() << "\n";
    return OkStatus();
  }
  out << "objects:    " << stats.heap.objects << " on pages, "
      << stats.resident_objects << " resident, " << stats.dirty_objects
      << " dirty\n";
  out << "pages:      " << stats.heap.data_pages << " data, "
      << stats.heap.overflow_pages << " overflow, " << stats.page_writes
      << " write(s)\n";
  out << "pool:       " << stats.pool.pages << "/" << stats.pool.capacity
      << " frames (" << stats.pool.pinned << " pinned, " << stats.pool.dirty
      << " dirty), " << stats.pool.hits << " hit(s), " << stats.pool.misses
      << " miss(es), " << stats.pool.evictions << " eviction(s)\n";
  return OkStatus();
}

Status ServerStatus(const net::Server* server, bool json, std::ostream& out) {
  if (server == nullptr) {
    return FailedPrecondition(
        "no network server is attached (start one with caddb_server)");
  }
  const net::ServerStats stats = server->stats();
  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Field("address", stats.address);
    w.Field("port", static_cast<uint64_t>(stats.port));
    w.Field("sessions_active", static_cast<uint64_t>(stats.sessions_active));
    w.Field("connections_accepted", stats.connections_accepted);
    w.Field("connections_rejected", stats.connections_rejected);
    w.Field("requests", stats.requests);
    w.Field("sheds", stats.sheds);
    w.Field("protocol_errors", stats.protocol_errors);
    w.Field("scrapes", stats.scrapes);
    w.Field("bytes_in", stats.bytes_in);
    w.Field("bytes_out", stats.bytes_out);
    w.Key("sessions");
    w.BeginArray();
    for (const net::SessionInfo& s : stats.sessions) {
      w.BeginObject();
      w.Field("id", s.id);
      w.Field("peer", s.peer);
      w.Field("namespace", s.ns);
      w.Field("read_only", s.read_only);
      w.Field("requests", s.requests);
      w.Field("sheds", s.sheds);
      w.Field("requests_per_sec", s.requests_per_sec);
      w.Field("bytes_in_per_sec", s.bytes_in_per_sec);
      w.Field("bytes_out_per_sec", s.bytes_out_per_sec);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    out << w.str() << "\n";
    return OkStatus();
  }
  out << "listening:  " << stats.address << "\n";
  out << "sessions:   " << stats.sessions_active << " active ("
      << stats.connections_accepted << " accepted, "
      << stats.connections_rejected << " rejected)\n";
  out << "requests:   " << stats.requests << " request(s), " << stats.sheds
      << " shed(s)\n";
  out << "transport:  " << stats.bytes_in << " bytes in, " << stats.bytes_out
      << " bytes out, " << stats.protocol_errors << " protocol error(s), "
      << stats.scrapes << " scrape(s)\n";
  for (const net::SessionInfo& s : stats.sessions) {
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.1f", s.requests_per_sec);
    out << "  #" << s.id << " " << s.peer << " ns=" << s.ns
        << (s.read_only ? " read-only" : " writable") << " " << s.requests
        << " request(s), " << s.sheds << " shed(s), " << rate
        << " req/s\n";
  }
  return OkStatus();
}

void RenderReplicaStatus(Database& db, replication::Follower* follower,
                         const replication::Shipper* shipper, bool json,
                         std::ostream& out) {
  const ReplicaInfo info =
      follower != nullptr ? follower->replica_info() : db.replica_info();
  const replication::Follower* quarantined =
      follower != nullptr &&
              follower->state() == replication::FollowerState::kQuarantined
          ? follower
          : nullptr;
  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Field("is_replica", info.is_replica);
    if (info.is_replica) {
      w.Field("state", info.state);
      w.Field("generation", info.generation);
      w.Field("manifest_seq", info.manifest_seq);
      w.Field("replay_lsn", info.replay_lsn);
      w.Field("shipped_lsn", info.shipped_lsn);
      w.Field("lag", info.lag());
    } else if (shipper != nullptr) {
      w.Field("ships_to", shipper->replica_dir());
    }
    if (quarantined != nullptr) {
      w.Key("quarantine");
      w.BeginObject();
      w.Field("code", quarantined->quarantine_code());
      w.Field("reason", quarantined->quarantine_reason());
      w.EndObject();
    }
    w.EndObject();
    out << w.str() << "\n";
    return;
  }
  if (!info.is_replica) {
    out << "not a replica (this database "
        << (shipper != nullptr ? "ships to " + shipper->replica_dir()
                               : "neither ships nor follows")
        << ")\n";
    return;
  }
  out << "state:        " << info.state << "\n";
  out << "generation:   " << info.generation << "\n";
  out << "manifest seq: " << info.manifest_seq << "\n";
  out << "replay lsn:   " << info.replay_lsn << " / shipped lsn "
      << info.shipped_lsn << " (lag " << info.lag() << ")\n";
  if (quarantined != nullptr) {
    out << "quarantine:   " << quarantined->quarantine_code() << ": "
        << quarantined->quarantine_reason() << "\n";
  }
}

bool Never(Args) { return false; }
bool Always(Args) { return true; }

/// A linear scan: the table is small and the lookup allocates nothing.
template <typename Entry>
const Entry* Find(std::span<const Entry> table, std::string_view name) {
  for (const Entry& entry : table) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

Result<bool> Dispatcher::Call::Json(size_t start) const {
  bool json = false;
  for (size_t i = start; i < args.size(); ++i) {
    if (!FormatFlag(args[i], &json)) return Usage();
  }
  return json;
}

std::span<const Dispatcher::Verb> Dispatcher::Verbs() {
  static const Verb kCheck[] = {
      // Offline disk verification against the database's own directory,
      // read-only: the checkpointer is paused and the log synced so the
      // artifacts hold still while we walk them. `--fix` is refused here:
      // repairs rewrite files a live database has open.
      {"disk", 0, 1, Never, "check disk [--format=json]", [](Call& c) {
         bool json = false;
         for (const std::string& arg : c.args) {
           if (arg == "--fix") {
             return FailedPrecondition(
                 "--fix rewrites files this process has open; close the "
                 "database and run `caddb_shell --check <dir> --fix`");
           }
           if (!FormatFlag(arg, &json)) {
             return InvalidArgument("unknown check disk argument '" + arg +
                                    "' (expected --format=json)");
           }
         }
         std::string dir;
         std::unique_lock<std::mutex> pause;
         if (c.self.follower_ != nullptr) {
           dir = c.self.follower_->replica_dir();
         } else if (c.self.db_ != nullptr && c.db().durable()) {
           pause = c.db().PauseCheckpoints();
           CADDB_RETURN_IF_ERROR(c.db().wal()->Sync());
           dir = c.db().wal()->dir();
         } else {
           return FailedPrecondition(
               "check disk needs a durable database or follower mode");
         }
         CADDB_ASSIGN_OR_RETURN(
             analysis::DiskVerifyReport report,
             analysis::VerifyDiskArtifacts(dir, analysis::DiskVerifyOptions{}));
         c.out << (json ? report.RenderJson() + "\n" : report.RenderText());
         if (!report.Clean()) ++c.self.error_count_;
         return OkStatus();
       }},
  };
  static const Verb kMetrics[] = {
      // Rates from the metrics-history ring. A running snapshotter (the
      // server's) answers from its samples; otherwise two inline ticks
      // ~100ms apart make the window computable on any database.
      {"--watch", 0, 2, Never, "metrics --watch [--window=MS] [--format=json]",
       [](Call& c) {
         uint64_t window_ms = 10000;
         bool json = false;
         for (const std::string& arg : c.args) {
           if (arg.rfind("--window=", 0) == 0) {
             CADDB_ASSIGN_OR_RETURN(window_ms,
                                    ParseUint(arg.substr(9), "window"));
           } else if (!FormatFlag(arg, &json)) {
             return c.Usage();
           }
         }
         obs::MetricsHistory& history = c.obs().history;
         if (!history.running() || history.size() < 2) {
           history.Tick();
           std::this_thread::sleep_for(std::chrono::milliseconds(100));
           history.Tick();
         }
         RenderRateWindow(history.Window(window_ms), json, c.out);
         return OkStatus();
       }},
  };
  // Failpoint control, local or over the wire. The registry is
  // process-wide; arming binds the site's fire counter into this
  // database's metrics registry so `metrics --format=prom` exports
  // caddb_fault_fired_total{site="..."}.
  static const Verb kFault[] = {
      {"list", 0, 1, Never, "fault list [--format=json]", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(bool json, c.Json());
         RenderFaults(json, c.out);
         return OkStatus();
       }},
      {"arm", 2, kMany, Always,
       "fault arm <site> <kind>[=value] [--skip=N] [--every=N] [--times=N] "
       "[--p=F] [--seed=S]",
       [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(
             fault::FailpointSpec spec,
             fault::FailpointSpec::Parse(
                 std::vector<std::string>(c.args.begin() + 1, c.args.end())));
         // Fires hit both surfaces at once: the metrics counter for rate
         // dashboards and a kWarn "fault" event for the who/when/what.
         return c.Ok(fault::FailpointRegistry::Global().Arm(
             c.args[0], spec, &c.obs().metrics, &c.obs().log));
       }},
      {"disarm", 1, 1, Always, "fault disarm <site>|--all", [](Call& c) {
         auto& registry = fault::FailpointRegistry::Global();
         if (c.args[0] != "--all") return c.Ok(registry.Disarm(c.args[0]));
         c.out << "disarmed " << registry.DisarmAll() << " site(s)\n";
         return OkStatus();
       }},
  };
  static const Verb kTrace[] = {
      {"on", 0, 0, Always, "trace on",
       [](Call& c) { c.obs().trace.Enable(); return c.Ok(); }},
      {"off", 0, 0, Always, "trace off",
       [](Call& c) { c.obs().trace.Disable(); return c.Ok(); }},
      {"clear", 0, 0, Always, "trace clear",
       [](Call& c) { c.obs().trace.Clear(); return c.Ok(); }},
      {"threshold", 1, 1, Always, "trace threshold <us>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(uint64_t us, ParseUint(c.args[0], "threshold"));
         c.obs().trace.set_slow_threshold_us(us);
         return c.Ok();
       }},
      {"dump", 0, 2, Never, "trace dump [--slow-only] [--format=json]",
       [](Call& c) {
         bool slow_only = false;
         bool json = false;
         for (const std::string& arg : c.args) {
           if (arg == "--slow-only") {
             slow_only = true;
           } else if (!FormatFlag(arg, &json)) {
             return c.Usage();
           }
         }
         RenderSpans(c.obs().trace.Dump(slow_only), slow_only, json, c.out);
         return OkStatus();
       }},
  };
  static const Verb kLog[] = {
      {"level", 1, 1, Always, "log level <debug|info|warn|error|off>",
       [](Call& c) {
         obs::LogLevel level;
         if (!obs::ParseLogLevel(c.args[0], &level)) {
           return InvalidArgument("bad log level '" + c.args[0] +
                                  "' (debug|info|warn|error|off)");
         }
         c.obs().log.set_level(level);
         return c.Ok();
       }},
      {"tail", 0, 2, Never, "log tail [n] [--format=json]", [](Call& c) {
         size_t n = 20;
         bool json = false;
         for (const std::string& arg : c.args) {
           if (!FormatFlag(arg, &json)) {
             CADDB_ASSIGN_OR_RETURN(n, ParseUint(arg, "count"));
           }
         }
         RenderLogTail(c.obs().log.Tail(n), json, c.out);
         return OkStatus();
       }},
  };
  static const Verb kCache[] = {
      {"reset-stats", 0, 0, Always, "cache reset-stats",
       [](Call& c) { c.db().inheritance().ResetCacheStats(); return c.Ok(); }},
  };
  static const Verb kReplica[] = {
      {"status", 0, 1, Never, "replica status [--format=json]", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(bool json, c.Json());
         RenderReplicaStatus(c.db(), c.self.follower_, c.self.shipper_.get(),
                             json, c.out);
         return OkStatus();
       }},
      {"poll", 0, 0, Always, "replica poll", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(replication::Follower* follower, c.Follower());
         CADDB_ASSIGN_OR_RETURN(replication::PollResult polled,
                                follower->Poll());
         if (polled.advanced) {
           c.out << "ok (applied manifest seq " << polled.manifest_seq
                 << ", replay lsn " << polled.replay_lsn << ", "
                 << polled.read_attempts << " read attempt(s))\n";
         } else {
           c.out << "ok (nothing new; manifest seq " << polled.manifest_seq
                 << ")\n";
         }
         return OkStatus();
       }},
      {"promote", 0, 0, Always, "replica promote", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(replication::Follower* follower, c.Follower());
         CADDB_ASSIGN_OR_RETURN(c.self.promoted_, follower->Promote());
         c.self.db_ = c.self.promoted_.get();
         c.self.follower_ = nullptr;
         c.out << "ok: promoted to writable primary (generation "
               << c.db().generation() << ", dir " << c.db().wal()->dir()
               << ")\n";
         return OkStatus();
       }},
      {"reseed", 0, 0, Always, "replica reseed", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(replication::Follower* follower, c.Follower());
         // Surface the verdict being overridden before touching anything —
         // an operator accepting a new history should see what was
         // rejected.
         if (follower->state() == replication::FollowerState::kQuarantined) {
           c.out << "quarantined: " << follower->quarantine_code() << ": "
                 << follower->quarantine_reason() << "\n";
         }
         CADDB_ASSIGN_OR_RETURN(replication::PollResult reseeded,
                                follower->Reseed());
         c.out << "ok: reseeded from manifest seq " << reseeded.manifest_seq
               << " (replay lsn " << reseeded.replay_lsn
               << "); quarantine cleared\n";
         return OkStatus();
       }},
  };
  static const Verb kVerbs[] = {
      {"schema", 1, 1, Always, "schema <<<  ...ddl...  >>>", [](Call& c) {
         if (c.args[0] != "<<<") return c.Usage();
         c.self.in_schema_block_ = true;
         return OkStatus();
       }},
      {"schema-file", 1, 1, Always, "schema-file <path>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(std::string ddl, ReadFile(c.args[0]));
         return c.Ok(c.db().ExecuteDdl(ddl));
       }},
      {"print-schema", 0, 0, Never, "print-schema", [](Call& c) {
         c.out << ddl::SchemaPrinter::Print(c.db().catalog());
         return OkStatus();
       }},
      {"class", 2, 2, Always, "class <name> <type>", [](Call& c) {
         return c.Ok(c.db().CreateClass(c.args[0], c.args[1]));
       }},
      {"create", 1, 2, Always, "create <type> [<class>]", [](Call& c) {
         return c.Id(c.db().CreateObject(c.args[0], c.args.size() > 1
                                                        ? c.args[1]
                                                        : std::string()));
       }},
      {"sub", 2, 2, Always, "sub @<parent> <subclass>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate parent, ParseRef(c.args[0]));
         return c.Id(c.db().CreateSubobject(parent, c.args[1]));
       }},
      {"rel", 2, kMany, Always, "rel <rel-type> <role>=@id[,@id...] ...",
       [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(auto roles, ParseRoles(c.args.subspan(1)));
         return c.Id(c.db().CreateRelationship(c.args[0], roles));
       }},
      {"subrel", 3, kMany, Always,
       "subrel @<owner> <subrel> <role>=@id[,@id...] ...",
       [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate owner, ParseRef(c.args[0]));
         CADDB_ASSIGN_OR_RETURN(auto roles, ParseRoles(c.args.subspan(2)));
         return c.Id(c.db().CreateSubrel(owner, c.args[1], roles));
       }},
      {"bind", 3, 3, Always,
       "bind @<inheritor> @<transmitter> <inher-rel-type>",
       [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate inheritor, ParseRef(c.args[0]));
         CADDB_ASSIGN_OR_RETURN(Surrogate transmitter, ParseRef(c.args[1]));
         return c.Id(c.db().Bind(inheritor, transmitter, c.args[2]));
       }},
      {"unbind", 1, 1, Always, "unbind @<inheritor>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate inheritor, ParseRef(c.args[0]));
         return c.Ok(c.db().Unbind(inheritor));
       }},
      {"set", 3, kMany, Always, "set @<id> <attr> <value>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(c.args[0]));
         CADDB_ASSIGN_OR_RETURN(Value value, persist::DecodeValue(c.Rest(2)));
         return c.Ok(c.db().Set(target, c.args[1], std::move(value)));
       }},
      {"get", 2, 2, Never, "get @<id> <attr>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(c.args[0]));
         CADDB_ASSIGN_OR_RETURN(Value value, c.db().Get(target, c.args[1]));
         c.out << value.ToString() << "\n";
         return OkStatus();
       }},
      {"members", 2, 2, Never, "members @<id> <subclass>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(c.args[0]));
         CADDB_ASSIGN_OR_RETURN(std::vector<Surrogate> members,
                                c.db().Subclass(target, c.args[1]));
         for (Surrogate m : members) c.out << "@" << m.id << " ";
         c.out << "(" << members.size() << ")\n";
         return OkStatus();
       }},
      {"delete", 1, 2, Always, "delete @<id> [detach]", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(c.args[0]));
         if (c.args.size() > 1 && c.args[1] != "detach") return c.Usage();
         return c.Ok(c.db().Delete(
             target, c.args.size() > 1
                         ? ObjectStore::DeletePolicy::kDetachInheritors
                         : ObjectStore::DeletePolicy::kRestrict));
       }},
      {"check", 0, 3,
       [](Args args) {
         return std::find(args.begin(), args.end(), "--repair") != args.end();
       },
       "check [schema|store] [--repair] [--format=json] | check disk "
       "[--format=json] | check @<id>",
       [](Call& c) {
         if (c.args.empty() || c.args[0][0] != '@') {
           return CheckAnalysis(c.db(), c.args, c.out, &c.self.error_count_);
         }
         if (c.args.size() != 1) return c.Usage();
         CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(c.args[0]));
         auto gate = c.db().LockStore();
         return c.Ok(c.db().constraints().CheckObject(target));
       },
       kCheck, std::size(kCheck)},
      {"check-deep", 1, 1, Never, "check-deep @<id>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(c.args[0]));
         auto gate = c.db().LockStore();
         return c.Ok(c.db().constraints().CheckDeep(target));
       }},
      {"check-all", 0, 0, Never, "check-all", [](Call& c) {
         auto gate = c.db().LockStore();
         return c.Ok(c.db().constraints().CheckAll());
       }},
      {"violations", 0, 0, Never, "violations", [](Call& c) {
         auto gate = c.db().LockStore();
         CADDB_ASSIGN_OR_RETURN(auto violations,
                                c.db().constraints().FindAllViolations());
         for (const auto& v : violations) {
           c.out << "@" << v.object.id << ": " << v.detail << "\n";
         }
         c.out << "(" << violations.size() << " violations)\n";
         // Violations are findings, not command failures — but a script
         // running `violations` as a gate needs the documented non-zero
         // exit, exactly like `check` with errors or a failed `check-all`.
         if (!violations.empty()) ++c.self.error_count_;
         return OkStatus();
       }},
      {"holds", 2, kMany, Never, "holds @<id> <expression...>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(c.args[0]));
         CADDB_ASSIGN_OR_RETURN(bool holds, c.db().Holds(target, c.Rest(1)));
         c.out << (holds ? "true" : "false") << "\n";
         return OkStatus();
       }},
      {"expand", 1, 2, Never, "expand @<id> [depth]",
       [](Call& c) { return Expand(c.db(), c.args, false, c.out); }},
      {"expand-dot", 1, 2, Never, "expand-dot @<id> [depth]",
       [](Call& c) { return Expand(c.db(), c.args, true, c.out); }},
      {"components", 1, 1, Never, "components @<id>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(c.args[0]));
         auto gate = c.db().LockStore();
         CADDB_ASSIGN_OR_RETURN(std::vector<ComponentUse> uses,
                                c.db().query().ComponentsOf(target));
         for (const ComponentUse& use : uses) {
           c.out << "@" << use.subobject.id << " -> @" << use.component.id
                 << " (via @" << use.inher_rel.id << ")\n";
         }
         c.out << "(" << uses.size() << " components)\n";
         return OkStatus();
       }},
      {"where-used", 1, 1, Never, "where-used @<id>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(Surrogate target, ParseRef(c.args[0]));
         auto gate = c.db().LockStore();
         CADDB_ASSIGN_OR_RETURN(std::vector<Surrogate> users,
                                c.db().query().WhereUsed(target));
         for (Surrogate user : users) c.out << "@" << user.id << " ";
         c.out << "(" << users.size() << " users)\n";
         return OkStatus();
       }},
      {"pending", 1, 1, Never, "pending @<id>", [](Call& c) {
         auto gate = c.db().LockStore();
         CADDB_ASSIGN_OR_RETURN(auto binding, BindingOf(c.db(), c.args[0]));
         c.out << c.db().notifications().AsValue(binding).ToString() << "\n";
         return OkStatus();
       }},
      {"ack", 1, 1, Always, "ack @<id>", [](Call& c) {
         auto gate = c.db().LockStore();
         CADDB_ASSIGN_OR_RETURN(auto binding, BindingOf(c.db(), c.args[0]));
         c.db().notifications().Acknowledge(binding);
         return c.Ok();
       }},
      {"select", 1, kMany, Never,
       "select <class-or-type> [<path>...] [where <expr...>]",
       [](Call& c) { return Select(c.db(), c.args, c.out); }},
      {"stats", 0, 1, Never, "stats [--format=json]", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(bool json, c.Json());
         auto gate = c.db().LockStore();
         DatabaseStats stats = DatabaseStats::Collect(c.db());
         c.out << (json ? stats.ToJson() + "\n" : stats.ToString());
         return OkStatus();
       }},
      {"metrics", 0, 1, Never, "metrics [--format=json|prom] | metrics --watch",
       [](Call& c) {
         const bool prom = !c.args.empty() && c.args[0] == "--format=prom";
         bool json = false;
         if (!prom && !c.args.empty() && !FormatFlag(c.args[0], &json)) {
           return c.Usage();
         }
         RenderMetrics(c.obs().metrics.Snapshot(), prom, json, c.out);
         return OkStatus();
       },
       kMetrics, std::size(kMetrics)},
      {"fault", 0, 0, Never, "fault list|arm|disarm", [](Call& c) {
         RenderFaults(false, c.out);
         return OkStatus();
       },
       kFault, std::size(kFault)},
      {"trace", 0, 0, Never,
       "trace [on|off|clear|threshold <us>|dump [--slow-only] "
       "[--format=json]]",
       [](Call& c) {
         const obs::Tracer& trace = c.obs().trace;
         c.out << "tracing " << (trace.enabled() ? "on" : "off")
               << "; slow threshold " << trace.slow_threshold_us() << "us; "
               << trace.total_spans() << " span(s) recorded\n";
         return OkStatus();
       },
       kTrace, std::size(kTrace)},
      {"log", 0, 0, Never,
       "log [tail [n] [--format=json]|level <debug|info|warn|error|off>]",
       [](Call& c) {
         const obs::EventLog& log = c.obs().log;
         c.out << "level " << obs::LogLevelName(log.level()) << "; "
               << log.total() << " event(s) admitted; sink "
               << (log.sink_open() ? "open" : "closed") << " ("
               << log.sink_written() << " written, " << log.sink_dropped()
               << " dropped)\n";
         return OkStatus();
       },
       kLog, std::size(kLog)},
      {"cache", 0, 0, Never, "cache [reset-stats]", [](Call& c) {
         const InheritanceManager& inherit = c.db().inheritance();
         auto gate = c.db().LockStore();
         c.out << inherit.cache_entries() << " entries (cap "
               << InheritanceManager::kCacheCapacity << "); "
               << inherit.cache_hits() << " hits, " << inherit.cache_misses()
               << " misses, " << inherit.cache_invalidations()
               << " invalidations, " << inherit.cache_evictions()
               << " evictions\n";
         return OkStatus();
       },
       kCache, std::size(kCache)},
      {"dump", 1, 1, Always, "dump <path>", [](Call& c) {
         Result<std::string> dumped = [&] {
           auto gate = c.db().LockStore();
           return persist::Dumper::Dump(c.db());
         }();
         CADDB_ASSIGN_OR_RETURN(auto dump, std::move(dumped));
         // Atomic + durable (temp file, fsync, rename, directory fsync): a
         // crash mid-dump never leaves a truncated file under the target
         // name.
         CADDB_RETURN_IF_ERROR(wal::AtomicWriteFile(c.args[0], dump));
         c.out << "ok (" << dump.size() << " bytes)\n";
         return OkStatus();
       }},
      {"load", 1, 1, Always, "load <path>", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(std::string text, ReadFile(c.args[0]));
         return c.Ok(persist::Dumper::Load(text, &c.db()));
       }},
      {"wal", 1, 2, Never, "wal status [--format=json]", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(bool json, c.StatusForm());
         return WalStatus(c.db(), json, c.out);
       }},
      {"checkpoint", 0, 0, Always, "checkpoint", [](Call& c) {
         CADDB_RETURN_IF_ERROR(c.db().Checkpoint());
         c.out << "ok (lsn " << c.db().wal()->last_lsn() << ")\n";
         return OkStatus();
       }},
      {"storage", 1, 2, Never, "storage status [--format=json]", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(bool json, c.StatusForm());
         return StorageStatus(c.db().storage_stats(), json, c.out);
       }},
      {"server", 1, 2, Never, "server status [--format=json]", [](Call& c) {
         CADDB_ASSIGN_OR_RETURN(bool json, c.StatusForm());
         return ServerStatus(c.self.server_, json, c.out);
       }},
      {"ship", 0, 1, Always,
       "ship <replica-dir> (directory sticks for later plain `ship`)",
       [](Call& c) {
         std::unique_ptr<replication::Shipper>& shipper = c.self.shipper_;
         if (!c.args.empty() &&
             (shipper == nullptr || shipper->replica_dir() != c.args[0])) {
           if (!c.db().durable()) {
             return FailedPrecondition(
                 "shipping needs a durable database (opened with a "
                 "directory)");
           }
           shipper = std::make_unique<replication::Shipper>(&c.db(), c.args[0]);
         }
         if (shipper == nullptr) return c.Usage();
         CADDB_ASSIGN_OR_RETURN(replication::ShipmentReport report,
                                shipper->ShipNow());
         c.out << "ok (manifest seq " << report.seq << ", shipped lsn "
               << report.shipped_lsn << ", " << report.files_copied
               << " file(s) copied, " << report.bytes_copied << " bytes";
         if (report.files_healed > 0) {
           c.out << ", " << report.files_healed << " healed";
         }
         if (report.files_deleted > 0) {
           c.out << ", " << report.files_deleted << " gc'd";
         }
         c.out << ")\n";
         return OkStatus();
       }},
      {"replica", 0, kMany, Never, "replica status|poll|promote|reseed",
       [](Call& c) { return c.Usage(); }, kReplica, std::size(kReplica)},
      {"echo", 0, kMany, Never, "echo <text...>", [](Call& c) {
         c.out << c.Rest(0) << "\n";
         return OkStatus();
       }},
      {"quit", 0, 0, Never, "quit", nullptr},
      {"exit", 0, 0, Never, "exit", nullptr},
  };
  return kVerbs;
}

Dispatcher::Dispatcher(Database* db) : db_(db) {}

Dispatcher::~Dispatcher() = default;

std::vector<std::string> Dispatcher::VerbNames() {
  std::vector<std::string> names;
  for (const Verb& verb : Verbs()) names.emplace_back(verb.name);
  return names;
}

bool Dispatcher::ExecuteLine(const std::string& line, std::ostream& out) {
  // In follower mode every applying poll replaces the follower's database
  // wholesale, so the dispatcher re-fetches it per line instead of caching
  // a pointer that a `replica poll` two lines ago invalidated.
  if (follower_ != nullptr && follower_->db() != nullptr) {
    db_ = follower_->db();
  }
  auto report = [&](const Status& s) {
    if (!s.ok()) {
      ++error_count_;
      out << "error: " << s.ToString() << "\n";
    }
    return true;
  };
  if (in_schema_block_) {
    if (line != ">>>") {
      schema_buffer_ += line + "\n";
      return true;
    }
    in_schema_block_ = false;
    Status s = db_->ExecuteDdl(schema_buffer_);
    schema_buffer_.clear();
    if (s.ok()) out << "ok\n";
    return report(s);
  }

  // Tokenize, look the verb (and subverb) up, check the read-only gate and
  // the arity from its entry, run its handler.
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') return true;
  const Verb* verb = Find(Verbs(), tokens[0]);
  if (verb == nullptr) {
    return report(InvalidArgument("unknown command '" + tokens[0] +
                                  "' (see shell/dispatcher.h)"));
  }
  Args args = Args(tokens).subspan(1);
  if (const Verb* sub =
          args.empty() ? nullptr
                       : Find(std::span(verb->subverbs, verb->subverb_count),
                              args[0])) {
    verb = sub;
    args = args.subspan(1);
  }
  if (read_only_ && verb->mutates(args)) {
    return report(PermissionDenied("read-only session: command '" +
                                   tokens[0] + "' is not allowed"));
  }
  Call call{*this, *verb, args, out};
  if (args.size() < verb->min_args || args.size() > verb->max_args) {
    return report(call.Usage());
  }
  if (verb->run == nullptr) return false;
  return report(verb->run(call));
}

void Dispatcher::Run(std::istream& in, std::ostream& out, bool prompt) {
  std::string line;
  while (true) {
    if (prompt) out << (in_schema_block_ ? "  ... " : "caddb> ");
    if (!std::getline(in, line)) break;
    if (!ExecuteLine(line, out)) break;
  }
}

}  // namespace shell
}  // namespace caddb
