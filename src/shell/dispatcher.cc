#include "shell/dispatcher.h"

#include <chrono>
#include <fstream>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
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
  try {
    return Surrogate(std::stoull(token.substr(1)));
  } catch (...) {
    return InvalidArgument("bad surrogate '" + token + "'");
  }
}

/// `role=@1,@2` participant syntax.
Result<std::pair<std::string, std::vector<Surrogate>>> ParseRole(
    const std::string& token) {
  size_t eq = token.find('=');
  if (eq == std::string::npos) {
    return InvalidArgument("expected <role>=@id[,@id...], got '" + token +
                           "'");
  }
  std::string role = token.substr(0, eq);
  std::vector<Surrogate> members;
  for (const std::string& part : Split(token.substr(eq + 1), ',')) {
    CADDB_ASSIGN_OR_RETURN(Surrogate s, ParseRef(part));
    members.push_back(s);
  }
  return std::make_pair(std::move(role), std::move(members));
}

std::string JoinFrom(const std::vector<std::string>& tokens, size_t start) {
  std::vector<std::string> rest(tokens.begin() + static_cast<long>(start),
                                tokens.end());
  return Join(rest, " ");
}

bool Contains(const std::vector<std::string>& tokens,
              const std::string& want) {
  for (const std::string& t : tokens) {
    if (t == want) return true;
  }
  return false;
}

}  // namespace

Dispatcher::Dispatcher(Database* db) : db_(db) {}

Dispatcher::~Dispatcher() = default;

void Dispatcher::AttachFollower(replication::Follower* follower) {
  follower_ = follower;
}

void Dispatcher::AttachServer(net::Server* server) { server_ = server; }

bool Dispatcher::IsMutatingCommand(const std::vector<std::string>& tokens) {
  const std::string& cmd = tokens[0];
  // Schema/data writes, file writes, and durability/replication actions.
  if (cmd == "schema" || cmd == "schema-file" || cmd == "class" ||
      cmd == "create" || cmd == "sub" || cmd == "rel" || cmd == "subrel" ||
      cmd == "bind" || cmd == "unbind" || cmd == "set" || cmd == "delete" ||
      cmd == "ack" || cmd == "dump" || cmd == "load" ||
      cmd == "checkpoint" || cmd == "ship") {
    return true;
  }
  // Arming/disarming failpoints changes process behavior; listing reads.
  if (cmd == "fault") return tokens.size() > 1 && tokens[1] != "list";
  // Mode changes are mutations; bare status forms are reads.
  if (cmd == "cache") return tokens.size() > 1;
  if (cmd == "trace") return tokens.size() > 1 && tokens[1] != "dump";
  // `log level` changes process behavior; `log tail` / bare status read.
  if (cmd == "log") return tokens.size() > 1 && tokens[1] == "level";
  if (cmd == "check") return Contains(tokens, "--repair");
  if (cmd == "replica") {
    return tokens.size() > 1 &&
           (tokens[1] == "poll" || tokens[1] == "promote" ||
            tokens[1] == "reseed");
  }
  return false;
}

bool Dispatcher::ExecuteLine(const std::string& line, std::ostream& out) {
  // In follower mode every applying poll replaces the follower's database
  // wholesale, so the dispatcher re-fetches it per line instead of caching
  // a pointer that a `replica poll` two lines ago invalidated.
  if (follower_ != nullptr && follower_->db() != nullptr) {
    db_ = follower_->db();
  }
  if (in_schema_block_) {
    if (line == ">>>") {
      in_schema_block_ = false;
      Status s = db_->ExecuteDdl(schema_buffer_);
      schema_buffer_.clear();
      if (!s.ok()) {
        ++error_count_;
        out << "error: " << s.ToString() << "\n";
      } else {
        out << "ok\n";
      }
    } else {
      schema_buffer_ += line + "\n";
    }
    return true;
  }

  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') return true;
  const std::string& cmd = tokens[0];

  auto fail = [&](const Status& s) {
    ++error_count_;
    out << "error: " << s.ToString() << "\n";
  };
  auto need = [&](size_t n) {
    if (tokens.size() < n + 1) {
      fail(InvalidArgument("command '" + cmd + "' needs " +
                           std::to_string(n) + " argument(s)"));
      return false;
    }
    return true;
  };

  if (cmd == "quit" || cmd == "exit") return false;

  if (read_only_ && IsMutatingCommand(tokens)) {
    fail(PermissionDenied("read-only session: command '" + cmd +
                          "' is not allowed"));
    return true;
  }

  if (cmd == "echo") {
    out << JoinFrom(tokens, 1) << "\n";
    return true;
  }
  if (cmd == "schema") {
    if (tokens.size() >= 2 && tokens[1] == "<<<") {
      in_schema_block_ = true;
      return true;
    }
    fail(InvalidArgument("use: schema <<<  ...ddl...  >>>"));
    return true;
  }
  if (cmd == "schema-file") {
    if (!need(1)) return true;
    std::ifstream file(tokens[1]);
    if (!file) {
      fail(NotFound("cannot open '" + tokens[1] + "'"));
      return true;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    Status s = db_->ExecuteDdl(buffer.str());
    s.ok() ? void(out << "ok\n") : fail(s);
    return true;
  }
  if (cmd == "print-schema") {
    out << ddl::SchemaPrinter::Print(db_->catalog());
    return true;
  }
  if (cmd == "class") {
    if (!need(2)) return true;
    Status s = db_->CreateClass(tokens[1], tokens[2]);
    s.ok() ? void(out << "ok\n") : fail(s);
    return true;
  }
  if (cmd == "create") {
    if (!need(1)) return true;
    Result<Surrogate> s =
        db_->CreateObject(tokens[1], tokens.size() > 2 ? tokens[2] : "");
    s.ok() ? void(out << "@" << s->id << "\n") : fail(s.status());
    return true;
  }
  if (cmd == "sub") {
    if (!need(2)) return true;
    Result<Surrogate> parent = ParseRef(tokens[1]);
    if (!parent.ok()) {
      fail(parent.status());
      return true;
    }
    Result<Surrogate> s = db_->CreateSubobject(*parent, tokens[2]);
    s.ok() ? void(out << "@" << s->id << "\n") : fail(s.status());
    return true;
  }
  if (cmd == "rel" || cmd == "subrel") {
    size_t first_role;
    std::string rel_type;
    Surrogate owner;
    std::string subrel_name;
    if (cmd == "rel") {
      if (!need(2)) return true;
      rel_type = tokens[1];
      first_role = 2;
    } else {
      if (!need(3)) return true;
      Result<Surrogate> o = ParseRef(tokens[1]);
      if (!o.ok()) {
        fail(o.status());
        return true;
      }
      owner = *o;
      subrel_name = tokens[2];
      first_role = 3;
    }
    std::map<std::string, std::vector<Surrogate>> participants;
    for (size_t i = first_role; i < tokens.size(); ++i) {
      auto role = ParseRole(tokens[i]);
      if (!role.ok()) {
        fail(role.status());
        return true;
      }
      participants[role->first] = role->second;
    }
    Result<Surrogate> s =
        cmd == "rel" ? db_->CreateRelationship(rel_type, participants)
                     : db_->CreateSubrel(owner, subrel_name, participants);
    s.ok() ? void(out << "@" << s->id << "\n") : fail(s.status());
    return true;
  }
  if (cmd == "bind") {
    if (!need(3)) return true;
    Result<Surrogate> inheritor = ParseRef(tokens[1]);
    Result<Surrogate> transmitter = ParseRef(tokens[2]);
    if (!inheritor.ok() || !transmitter.ok()) {
      fail(inheritor.ok() ? transmitter.status() : inheritor.status());
      return true;
    }
    Result<Surrogate> s = db_->Bind(*inheritor, *transmitter, tokens[3]);
    s.ok() ? void(out << "@" << s->id << "\n") : fail(s.status());
    return true;
  }
  if (cmd == "unbind") {
    if (!need(1)) return true;
    Result<Surrogate> inheritor = ParseRef(tokens[1]);
    if (!inheritor.ok()) {
      fail(inheritor.status());
      return true;
    }
    Status s = db_->Unbind(*inheritor);
    s.ok() ? void(out << "ok\n") : fail(s);
    return true;
  }
  if (cmd == "set") {
    if (!need(3)) return true;
    Result<Surrogate> target = ParseRef(tokens[1]);
    if (!target.ok()) {
      fail(target.status());
      return true;
    }
    Result<Value> v = persist::DecodeValue(JoinFrom(tokens, 3));
    if (!v.ok()) {
      fail(v.status());
      return true;
    }
    Status s = db_->Set(*target, tokens[2], std::move(*v));
    s.ok() ? void(out << "ok\n") : fail(s);
    return true;
  }
  if (cmd == "get") {
    if (!need(2)) return true;
    Result<Surrogate> target = ParseRef(tokens[1]);
    if (!target.ok()) {
      fail(target.status());
      return true;
    }
    Result<Value> v = db_->Get(*target, tokens[2]);
    v.ok() ? void(out << v->ToString() << "\n") : fail(v.status());
    return true;
  }
  if (cmd == "members") {
    if (!need(2)) return true;
    Result<Surrogate> target = ParseRef(tokens[1]);
    if (!target.ok()) {
      fail(target.status());
      return true;
    }
    Result<std::vector<Surrogate>> members =
        db_->Subclass(*target, tokens[2]);
    if (!members.ok()) {
      fail(members.status());
      return true;
    }
    for (Surrogate m : *members) out << "@" << m.id << " ";
    out << "(" << members->size() << ")\n";
    return true;
  }
  if (cmd == "delete") {
    if (!need(1)) return true;
    Result<Surrogate> target = ParseRef(tokens[1]);
    if (!target.ok()) {
      fail(target.status());
      return true;
    }
    auto policy = tokens.size() > 2 && tokens[2] == "detach"
                      ? ObjectStore::DeletePolicy::kDetachInheritors
                      : ObjectStore::DeletePolicy::kRestrict;
    Status s = db_->Delete(*target, policy);
    s.ok() ? void(out << "ok\n") : fail(s);
    return true;
  }
  if (cmd == "check" && tokens.size() > 1 && tokens[1] == "disk") {
    // Offline disk verification against the database's own directory:
    // `check disk [--format=json]`. Read-only — the checkpointer is paused
    // and the log synced so the artifacts hold still while we walk them.
    // `--fix` is refused here: repairs rewrite files a live database has
    // open (use `caddb_shell --check <dir> --fix` on a closed one).
    bool json = false;
    for (size_t i = 2; i < tokens.size(); ++i) {
      if (tokens[i] == "--format=json") {
        json = true;
      } else if (tokens[i] == "--format=text") {
        json = false;
      } else if (tokens[i] == "--fix") {
        fail(FailedPrecondition(
            "--fix rewrites files this process has open; close the "
            "database and run `caddb_shell --check <dir> --fix`"));
        return true;
      } else {
        fail(InvalidArgument("unknown check disk argument '" + tokens[i] +
                             "' (expected --format=json)"));
        return true;
      }
    }
    std::string dir;
    std::unique_lock<std::mutex> pause;
    if (follower_ != nullptr) {
      dir = follower_->replica_dir();
    } else if (db_ != nullptr && db_->durable()) {
      pause = db_->PauseCheckpoints();
      Status synced = db_->wal()->Sync();
      if (!synced.ok()) {
        fail(synced);
        return true;
      }
      dir = db_->wal()->dir();
    } else {
      fail(FailedPrecondition(
          "check disk needs a durable database or follower mode"));
      return true;
    }
    Result<analysis::DiskVerifyReport> report =
        analysis::VerifyDiskArtifacts(dir, analysis::DiskVerifyOptions{});
    if (!report.ok()) {
      fail(report.status());
      return true;
    }
    if (json) {
      out << report->RenderJson() << "\n";
    } else {
      out << report->RenderText();
    }
    if (!report->Clean()) ++error_count_;
    return true;
  }
  if (cmd == "check" && (tokens.size() == 1 || tokens[1][0] != '@')) {
    // Static integrity analysis: `check [schema|store] [--format=json]`.
    // (`check @<id>` keeps its historic meaning: constraint check of one
    // object — handled below.)
    bool schema = true;
    bool store = true;
    bool json = false;
    bool repair = false;
    for (size_t i = 1; i < tokens.size(); ++i) {
      if (tokens[i] == "schema") {
        store = false;
      } else if (tokens[i] == "store") {
        schema = false;
      } else if (tokens[i] == "--repair") {
        repair = true;
      } else if (tokens[i] == "--format=json") {
        json = true;
      } else if (tokens[i] == "--format=text") {
        json = false;
      } else {
        fail(InvalidArgument(
            "unknown check argument '" + tokens[i] +
            "' (expected schema, store, --repair, or --format=json)"));
        return true;
      }
    }
    if (repair && !store) {
      fail(InvalidArgument("--repair only applies to the store pass"));
      return true;
    }
    analysis::DiagnosticBag bag;
    if (schema) bag.Merge(db_->CheckSchema());
    if (store) bag.Merge(db_->CheckStore());
    bag.Sort();
    bool repaired = false;
    if (repair && bag.HasErrors()) {
      // Rebuild the secondary indexes from the primary object map and see
      // whether that cleared the findings.
      db_->store().RepairIndexes();
      analysis::DiagnosticBag after;
      if (schema) after.Merge(db_->CheckSchema());
      after.Merge(db_->CheckStore());
      after.Sort();
      bag = std::move(after);
      repaired = true;
    }
    if (json) {
      out << bag.RenderJson() << "\n";
    } else {
      out << bag.RenderText();
      if (repaired) out << "check: indexes rebuilt (--repair)\n";
      out << "check: " << bag.Summary() << "\n";
    }
    if (bag.HasErrors()) ++error_count_;
    return true;
  }
  if (cmd == "check" || cmd == "check-deep") {
    if (!need(1)) return true;
    Result<Surrogate> target = ParseRef(tokens[1]);
    if (!target.ok()) {
      fail(target.status());
      return true;
    }
    Status s = cmd == "check" ? db_->constraints().CheckObject(*target)
                              : db_->constraints().CheckDeep(*target);
    s.ok() ? void(out << "ok\n") : fail(s);
    return true;
  }
  if (cmd == "check-all") {
    Status s = db_->constraints().CheckAll();
    s.ok() ? void(out << "ok\n") : fail(s);
    return true;
  }
  if (cmd == "violations") {
    auto violations = db_->constraints().FindAllViolations();
    if (!violations.ok()) {
      fail(violations.status());
      return true;
    }
    for (const auto& v : *violations) {
      out << "@" << v.object.id << ": " << v.detail << "\n";
    }
    out << "(" << violations->size() << " violations)\n";
    // Violations are findings, not command failures — but a script running
    // `violations` as a gate needs the documented non-zero exit, exactly
    // like `check` with errors or a failed `check-all`.
    if (!violations->empty()) ++error_count_;
    return true;
  }
  if (cmd == "holds") {
    if (!need(2)) return true;
    Result<Surrogate> target = ParseRef(tokens[1]);
    if (!target.ok()) {
      fail(target.status());
      return true;
    }
    Result<bool> holds = db_->Holds(*target, JoinFrom(tokens, 2));
    holds.ok() ? void(out << (*holds ? "true" : "false") << "\n")
               : fail(holds.status());
    return true;
  }
  if (cmd == "expand" || cmd == "expand-dot") {
    if (!need(1)) return true;
    Result<Surrogate> target = ParseRef(tokens[1]);
    if (!target.ok()) {
      fail(target.status());
      return true;
    }
    ExpandOptions options;
    if (tokens.size() > 2) {
      try {
        options.max_depth = std::stoi(tokens[2]);
      } catch (...) {
        fail(InvalidArgument("bad depth '" + tokens[2] + "'"));
        return true;
      }
    }
    Result<ExpansionNode> tree = db_->expander().Expand(*target, options);
    if (!tree.ok()) {
      fail(tree.status());
      return true;
    }
    out << (cmd == "expand" ? Expander::Render(*tree)
                            : Expander::RenderDot(*tree));
    return true;
  }
  if (cmd == "components" || cmd == "where-used") {
    if (!need(1)) return true;
    Result<Surrogate> target = ParseRef(tokens[1]);
    if (!target.ok()) {
      fail(target.status());
      return true;
    }
    if (cmd == "components") {
      auto uses = db_->query().ComponentsOf(*target);
      if (!uses.ok()) {
        fail(uses.status());
        return true;
      }
      for (const ComponentUse& use : *uses) {
        out << "@" << use.subobject.id << " -> @" << use.component.id
            << " (via @" << use.inher_rel.id << ")\n";
      }
      out << "(" << uses->size() << " components)\n";
    } else {
      auto users = db_->query().WhereUsed(*target);
      if (!users.ok()) {
        fail(users.status());
        return true;
      }
      for (Surrogate user : *users) out << "@" << user.id << " ";
      out << "(" << users->size() << " users)\n";
    }
    return true;
  }
  if (cmd == "pending" || cmd == "ack") {
    if (!need(1)) return true;
    Result<Surrogate> target = ParseRef(tokens[1]);
    if (!target.ok()) {
      fail(target.status());
      return true;
    }
    Result<Surrogate> binding = db_->inheritance().BindingOf(*target);
    if (!binding.ok() || !binding->valid()) {
      fail(FailedPrecondition("@" + std::to_string(target->id) +
                              " is not bound"));
      return true;
    }
    if (cmd == "ack") {
      db_->notifications().Acknowledge(*binding);
      out << "ok\n";
    } else {
      out << db_->notifications().AsValue(*binding).ToString() << "\n";
    }
    return true;
  }
  if (cmd == "select") {
    // select <class-or-type> [<path>...] [where <expr...>]
    if (!need(1)) return true;
    std::vector<std::string> paths;
    std::string predicate_text;
    for (size_t i = 2; i < tokens.size(); ++i) {
      if (tokens[i] == "where") {
        predicate_text = JoinFrom(tokens, i + 1);
        break;
      }
      paths.push_back(tokens[i]);
    }
    expr::ExprPtr predicate;
    if (!predicate_text.empty()) {
      Result<expr::ExprPtr> parsed =
          ddl::Parser::ParseConstraintExpression(predicate_text);
      if (!parsed.ok()) {
        fail(parsed.status());
        return true;
      }
      predicate = *parsed;
    }
    // Classes take precedence over type extents.
    Result<std::vector<Surrogate>> hits =
        db_->query().SelectFromClass(tokens[1], predicate);
    if (!hits.ok() && hits.status().code() == Code::kNotFound) {
      hits = db_->query().SelectFromExtent(tokens[1], predicate);
    }
    if (!hits.ok()) {
      fail(hits.status());
      return true;
    }
    Result<Table> table = Project(db_->inheritance(), *hits, paths);
    if (!table.ok()) {
      fail(table.status());
      return true;
    }
    out << table->ToString();
    out << "(" << table->rows.size() << " rows)\n";
    return true;
  }
  if (cmd == "stats") {
    DatabaseStats stats = DatabaseStats::Collect(*db_);
    if (tokens.size() > 1 && tokens[1] == "--format=json") {
      out << stats.ToJson() << "\n";
    } else if (tokens.size() > 1 && tokens[1] != "--format=text") {
      fail(InvalidArgument("use: stats [--format=json]"));
    } else {
      out << stats.ToString();
    }
    return true;
  }
  if (cmd == "metrics") {
    if (tokens.size() > 1 && tokens[1] == "--watch") {
      // Rates from the metrics-history ring. A running snapshotter (the
      // server's) answers from its samples; otherwise two inline ticks
      // ~100ms apart make the window computable on any database.
      uint64_t window_ms = 10000;
      bool json = false;
      bool bad = false;
      for (size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "--format=json") {
          json = true;
        } else if (tokens[i].rfind("--window=", 0) == 0) {
          try {
            window_ms = std::stoull(tokens[i].substr(9));
          } catch (...) {
            bad = true;
          }
        } else if (tokens[i] != "--format=text") {
          bad = true;
        }
      }
      if (bad) {
        fail(InvalidArgument(
            "use: metrics --watch [--window=MS] [--format=json]"));
        return true;
      }
      obs::MetricsHistory& history = db_->observability()->history;
      if (!history.running() || history.size() < 2) {
        history.Tick();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        history.Tick();
      }
      const obs::RateWindow window = history.Window(window_ms);
      if (json) {
        JsonWriter w;
        obs::WriteRateWindowJson(window, &w);
        out << w.str() << "\n";
        return true;
      }
      out << "window:     " << (window.elapsed_us / 1000) << "ms ("
          << window.samples << " sample(s) in ring)\n";
      for (const obs::CounterRate& rate : window.rates) {
        char per_sec[32];
        std::snprintf(per_sec, sizeof(per_sec), "%.1f", rate.per_sec);
        out << rate.name << " +" << rate.delta << " (" << per_sec
            << "/s)\n";
      }
      for (const obs::GaugeSample& g : window.gauges) {
        out << g.name << " = " << g.value << "\n";
      }
      return true;
    }
    std::string format = "text";
    if (tokens.size() > 1) {
      if (tokens[1] == "--format=json") {
        format = "json";
      } else if (tokens[1] == "--format=prom") {
        format = "prom";
      } else if (tokens[1] != "--format=text") {
        fail(InvalidArgument(
            "use: metrics [--format=json|prom] | metrics --watch"));
        return true;
      }
    }
    const obs::MetricsSnapshot snapshot =
        db_->observability()->metrics.Snapshot();
    if (format == "prom") {
      out << obs::RenderPrometheus(snapshot);
    } else if (format == "json") {
      out << obs::RenderMetricsJson(snapshot) << "\n";
    } else {
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
            << " p99=" << static_cast<uint64_t>(h.data.Percentile(0.99))
            << "\n";
      }
    }
    return true;
  }
  if (cmd == "fault") {
    // Failpoint control, local or over the wire. The registry is
    // process-wide; arming binds the site's fire counter into this
    // database's metrics registry so `metrics --format=prom` exports
    // caddb_fault_fired_total{site="..."}.
    fault::FailpointRegistry& registry = fault::FailpointRegistry::Global();
    const std::string sub = tokens.size() > 1 ? tokens[1] : "list";
    if (sub == "list") {
      const bool json =
          tokens.size() > 2 && tokens[2] == "--format=json";
      if (tokens.size() > 2 && !json && tokens[2] != "--format=text") {
        fail(InvalidArgument("use: fault list [--format=json]"));
        return true;
      }
      const std::vector<fault::SiteInfo> sites = registry.List();
      if (json) {
        JsonWriter w;
        w.BeginArray();
        for (const fault::SiteInfo& site : sites) {
          w.BeginObject();
          w.Key("site");
          w.String(site.name);
          w.Key("armed");
          w.Bool(site.armed);
          w.Key("spec");
          w.String(site.spec);
          w.Key("hits");
          w.UInt(site.hits);
          w.Key("fired");
          w.UInt(site.fired);
          w.EndObject();
        }
        w.EndArray();
        out << w.str() << "\n";
      } else {
        for (const fault::SiteInfo& site : sites) {
          out << site.name << " " << site.spec << " hits=" << site.hits
              << " fired=" << site.fired << "\n";
        }
      }
      return true;
    }
    if (sub == "arm") {
      if (tokens.size() < 4) {
        fail(InvalidArgument(
            "use: fault arm <site> <kind>[=value] [--skip=N] [--every=N] "
            "[--times=N] [--p=F] [--seed=S]"));
        return true;
      }
      std::vector<std::string> spec_tokens(tokens.begin() + 3, tokens.end());
      Result<fault::FailpointSpec> spec =
          fault::FailpointSpec::Parse(spec_tokens);
      if (!spec.ok()) {
        fail(spec.status());
        return true;
      }
      // Fires hit both surfaces at once: the metrics counter for rate
      // dashboards and a kWarn "fault" event for the who/when/what.
      Status s = registry.Arm(tokens[2], *spec,
                              &db_->observability()->metrics,
                              &db_->observability()->log);
      s.ok() ? void(out << "ok\n") : fail(s);
      return true;
    }
    if (sub == "disarm") {
      if (tokens.size() > 2 && tokens[2] == "--all") {
        out << "disarmed " << registry.DisarmAll() << " site(s)\n";
        return true;
      }
      if (!need(2)) return true;
      Status s = registry.Disarm(tokens[2]);
      s.ok() ? void(out << "ok\n") : fail(s);
      return true;
    }
    fail(InvalidArgument("use: fault list|arm|disarm"));
    return true;
  }
  if (cmd == "trace") {
    obs::Tracer& trace = db_->observability()->trace;
    if (tokens.size() < 2) {
      out << "tracing " << (trace.enabled() ? "on" : "off")
          << "; slow threshold " << trace.slow_threshold_us() << "us; "
          << trace.total_spans() << " span(s) recorded\n";
      return true;
    }
    if (tokens[1] == "on") {
      trace.Enable();
      out << "ok\n";
    } else if (tokens[1] == "off") {
      trace.Disable();
      out << "ok\n";
    } else if (tokens[1] == "clear") {
      trace.Clear();
      out << "ok\n";
    } else if (tokens[1] == "threshold") {
      if (!need(2)) return true;
      uint64_t us = 0;
      try {
        us = std::stoull(tokens[2]);
      } catch (...) {
        fail(InvalidArgument("bad threshold '" + tokens[2] + "'"));
        return true;
      }
      trace.set_slow_threshold_us(us);
      out << "ok\n";
    } else if (tokens[1] == "dump") {
      bool slow_only = false;
      bool json = false;
      bool bad = false;
      for (size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "--slow-only") {
          slow_only = true;
        } else if (tokens[i] == "--format=json") {
          json = true;
        } else if (tokens[i] != "--format=text") {
          bad = true;
        }
      }
      if (bad) {
        fail(InvalidArgument(
            "use: trace dump [--slow-only] [--format=json]"));
        return true;
      }
      std::vector<obs::SpanRecord> spans = trace.Dump(slow_only);
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
          for (const auto& [key, value] : span.attributes) {
            w.Field(key, value);
          }
          w.EndObject();
          w.EndObject();
        }
        w.EndArray();
        out << w.str() << "\n";
        return true;
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
      out << "(" << spans.size() << (slow_only ? " slow" : "")
          << " span(s))\n";
    } else {
      fail(InvalidArgument(
          "use: trace [on|off|clear|threshold <us>|dump [--slow-only] "
          "[--format=json]]"));
    }
    return true;
  }
  if (cmd == "log") {
    obs::EventLog& log = db_->observability()->log;
    if (tokens.size() < 2) {
      out << "level " << obs::LogLevelName(log.level()) << "; "
          << log.total() << " event(s) admitted; sink "
          << (log.sink_open() ? "open" : "closed") << " ("
          << log.sink_written() << " written, " << log.sink_dropped()
          << " dropped)\n";
      return true;
    }
    if (tokens[1] == "level") {
      if (!need(2)) return true;
      obs::LogLevel level;
      if (!obs::ParseLogLevel(tokens[2], &level)) {
        fail(InvalidArgument("bad log level '" + tokens[2] +
                             "' (debug|info|warn|error|off)"));
        return true;
      }
      log.set_level(level);
      out << "ok\n";
      return true;
    }
    if (tokens[1] == "tail") {
      size_t n = 20;
      bool json = false;
      bool bad = false;
      for (size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "--format=json") {
          json = true;
        } else if (tokens[i] == "--format=text") {
          // default
        } else {
          try {
            n = std::stoull(tokens[i]);
          } catch (...) {
            bad = true;
          }
        }
      }
      if (bad) {
        fail(InvalidArgument("use: log tail [n] [--format=json]"));
        return true;
      }
      const std::vector<obs::LogRecord> records = log.Tail(n);
      if (json) {
        JsonWriter w;
        w.BeginArray();
        for (const obs::LogRecord& record : records) {
          obs::WriteLogRecordJson(record, &w);
        }
        w.EndArray();
        out << w.str() << "\n";
        return true;
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
      return true;
    }
    fail(InvalidArgument(
        "use: log [tail [n] [--format=json]|level <debug|info|warn|error|"
        "off>]"));
    return true;
  }
  if (cmd == "cache") {
    InheritanceManager& inherit = db_->inheritance();
    if (tokens.size() == 1) {
      out << (inherit.cache_enabled() ? "fine-grained" : "off") << ": "
          << inherit.cache_entries() << " entries; " << inherit.cache_hits()
          << " hits, " << inherit.cache_misses() << " misses, "
          << inherit.cache_invalidations() << " invalidations\n";
    } else if (tokens[1] == "off") {
      inherit.EnableCache(false);
      out << "ok\n";
    } else if (tokens[1] == "fine" || tokens[1] == "on") {
      inherit.EnableCache(true);
      out << "ok\n";
    } else if (tokens[1] == "reset-stats") {
      inherit.ResetCacheStats();
      out << "ok\n";
    } else {
      fail(InvalidArgument("use: cache [off|fine|on|reset-stats]"));
    }
    return true;
  }
  if (cmd == "dump" || cmd == "load") {
    if (!need(1)) return true;
    if (cmd == "dump") {
      Result<std::string> dump = persist::Dumper::Dump(*db_);
      if (!dump.ok()) {
        fail(dump.status());
        return true;
      }
      // Atomic + durable (temp file, fsync, rename, directory fsync): a
      // crash mid-dump never leaves a truncated file under the target name.
      Status written = wal::AtomicWriteFile(tokens[1], *dump);
      if (!written.ok()) {
        fail(written);
        return true;
      }
      out << "ok (" << dump->size() << " bytes)\n";
    } else {
      std::ifstream file(tokens[1]);
      if (!file) {
        fail(NotFound("cannot open '" + tokens[1] + "'"));
        return true;
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      Status s = persist::Dumper::Load(buffer.str(), db_);
      s.ok() ? void(out << "ok\n") : fail(s);
    }
    return true;
  }

  if (cmd == "wal") {
    if (tokens.size() < 2 || tokens[1] != "status") {
      fail(InvalidArgument("use: wal status [--format=json]"));
      return true;
    }
    bool json = false;
    if (tokens.size() > 2) {
      if (tokens[2] == "--format=json") {
        json = true;
      } else if (tokens[2] != "--format=text") {
        fail(InvalidArgument("use: wal status [--format=json]"));
        return true;
      }
    }
    if (!db_->durable()) {
      fail(FailedPrecondition(
          "database is not durable (opened without a log directory)"));
      return true;
    }
    if (json) {
      const wal::WalStats stats = db_->wal()->stats();
      const wal::RecoveryReport& recovery = db_->recovery_report();
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
      return true;
    }
    out << "log:        " << db_->wal()->stats().ToString() << "\n";
    out << "recovery:   " << db_->recovery_report().ToString() << "\n";
    return true;
  }
  if (cmd == "checkpoint") {
    Status s = db_->Checkpoint();
    s.ok() ? void(out << "ok (lsn " << db_->wal()->last_lsn() << ")\n")
           : fail(s);
    return true;
  }
  if (cmd == "storage") {
    if (tokens.size() < 2 || tokens[1] != "status") {
      fail(InvalidArgument("use: storage status [--format=json]"));
      return true;
    }
    bool json = false;
    if (tokens.size() > 2) {
      if (tokens[2] == "--format=json") {
        json = true;
      } else if (tokens[2] != "--format=text") {
        fail(InvalidArgument("use: storage status [--format=json]"));
        return true;
      }
    }
    const Database::StorageStats stats = db_->storage_stats();
    if (!stats.paged) {
      fail(FailedPrecondition("database has no paged store (opened without "
                              "a directory)"));
      return true;
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
      return true;
    }
    out << "objects:    " << stats.heap.objects << " on pages, "
        << stats.resident_objects << " resident, " << stats.dirty_objects
        << " dirty\n";
    out << "pages:      " << stats.heap.data_pages << " data, "
        << stats.heap.overflow_pages << " overflow, " << stats.page_writes
        << " write(s)\n";
    out << "pool:       " << stats.pool.pages << "/" << stats.pool.capacity
        << " frames (" << stats.pool.pinned << " pinned, "
        << stats.pool.dirty << " dirty), " << stats.pool.hits << " hit(s), "
        << stats.pool.misses << " miss(es), " << stats.pool.evictions
        << " eviction(s)\n";
    return true;
  }
  if (cmd == "server") {
    if (tokens.size() < 2 || tokens[1] != "status") {
      fail(InvalidArgument("use: server status [--format=json]"));
      return true;
    }
    bool json = false;
    if (tokens.size() > 2) {
      if (tokens[2] == "--format=json") {
        json = true;
      } else if (tokens[2] != "--format=text") {
        fail(InvalidArgument("use: server status [--format=json]"));
        return true;
      }
    }
    if (server_ == nullptr) {
      fail(FailedPrecondition(
          "no network server is attached (start one with caddb_server)"));
      return true;
    }
    const net::ServerStats stats = server_->stats();
    if (json) {
      JsonWriter w;
      w.BeginObject();
      w.Field("address", stats.address);
      w.Field("port", static_cast<uint64_t>(stats.port));
      w.Field("sessions_active", static_cast<uint64_t>(stats.sessions_active));
      w.Field("connections_accepted", stats.connections_accepted);
      w.Field("connections_rejected", stats.connections_rejected);
      w.Field("queue_depth", static_cast<uint64_t>(stats.queue_depth));
      w.Field("queue_capacity", static_cast<uint64_t>(stats.queue_capacity));
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
        w.Field("inflight", static_cast<uint64_t>(s.inflight));
        w.Field("requests_per_sec", s.requests_per_sec);
        w.Field("bytes_in_per_sec", s.bytes_in_per_sec);
        w.Field("bytes_out_per_sec", s.bytes_out_per_sec);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
      out << w.str() << "\n";
      return true;
    }
    out << "listening:  " << stats.address << "\n";
    out << "sessions:   " << stats.sessions_active << " active ("
        << stats.connections_accepted << " accepted, "
        << stats.connections_rejected << " rejected)\n";
    out << "queue:      " << stats.queue_depth << "/" << stats.queue_capacity
        << " queued, " << stats.requests << " request(s), " << stats.sheds
        << " shed(s)\n";
    out << "transport:  " << stats.bytes_in << " bytes in, "
        << stats.bytes_out << " bytes out, " << stats.protocol_errors
        << " protocol error(s), " << stats.scrapes << " scrape(s)\n";
    for (const net::SessionInfo& s : stats.sessions) {
      char rate[32];
      std::snprintf(rate, sizeof(rate), "%.1f", s.requests_per_sec);
      out << "  #" << s.id << " " << s.peer << " ns=" << s.ns
          << (s.read_only ? " read-only" : " writable") << " "
          << s.requests << " request(s), " << s.sheds << " shed(s), "
          << s.inflight << " in flight, " << rate << " req/s\n";
    }
    return true;
  }

  if (cmd == "ship") {
    if (tokens.size() >= 2 &&
        (shipper_ == nullptr || shipper_->replica_dir() != tokens[1])) {
      if (!db_->durable()) {
        fail(FailedPrecondition(
            "shipping needs a durable database (opened with a directory)"));
        return true;
      }
      shipper_ =
          std::make_unique<replication::Shipper>(db_, tokens[1]);
    }
    if (shipper_ == nullptr) {
      fail(InvalidArgument("use: ship <replica-dir> (directory sticks "
                           "for later plain `ship`)"));
      return true;
    }
    Result<replication::ShipmentReport> report = shipper_->ShipNow();
    if (!report.ok()) {
      fail(report.status());
      return true;
    }
    out << "ok (manifest seq " << report->seq << ", shipped lsn "
        << report->shipped_lsn << ", " << report->files_copied
        << " file(s) copied, " << report->bytes_copied << " bytes";
    if (report->files_healed > 0) {
      out << ", " << report->files_healed << " healed";
    }
    if (report->files_deleted > 0) {
      out << ", " << report->files_deleted << " gc'd";
    }
    out << ")\n";
    return true;
  }
  if (cmd == "replica") {
    if (tokens.size() < 2) {
      fail(InvalidArgument("use: replica status|poll|promote|reseed"));
      return true;
    }
    if (tokens[1] == "status") {
      bool json = false;
      if (tokens.size() > 2) {
        if (tokens[2] == "--format=json") {
          json = true;
        } else if (tokens[2] != "--format=text") {
          fail(InvalidArgument("use: replica status [--format=json]"));
          return true;
        }
      }
      const ReplicaInfo info = follower_ != nullptr
                                   ? follower_->replica_info()
                                   : db_->replica_info();
      const bool quarantined =
          follower_ != nullptr &&
          follower_->state() == replication::FollowerState::kQuarantined;
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
        } else if (shipper_ != nullptr) {
          w.Field("ships_to", shipper_->replica_dir());
        }
        if (quarantined) {
          w.Key("quarantine");
          w.BeginObject();
          w.Field("code", follower_->quarantine_code());
          w.Field("reason", follower_->quarantine_reason());
          w.EndObject();
        }
        w.EndObject();
        out << w.str() << "\n";
        return true;
      }
      if (!info.is_replica) {
        out << "not a replica (this database "
            << (shipper_ != nullptr ? "ships to " + shipper_->replica_dir()
                                    : "neither ships nor follows")
            << ")\n";
        return true;
      }
      out << "state:        " << info.state << "\n";
      out << "generation:   " << info.generation << "\n";
      out << "manifest seq: " << info.manifest_seq << "\n";
      out << "replay lsn:   " << info.replay_lsn << " / shipped lsn "
          << info.shipped_lsn << " (lag " << info.lag() << ")\n";
      if (quarantined) {
        out << "quarantine:   " << follower_->quarantine_code() << ": "
            << follower_->quarantine_reason() << "\n";
      }
      return true;
    }
    if (follower_ == nullptr) {
      fail(FailedPrecondition("replica " + tokens[1] +
                              " needs follower mode (caddb_shell --follow)"));
      return true;
    }
    if (tokens[1] == "reseed") {
      // Surface the verdict being overridden before touching anything — an
      // operator accepting a new history should see what was rejected.
      if (follower_->state() == replication::FollowerState::kQuarantined) {
        out << "quarantined: " << follower_->quarantine_code() << ": "
            << follower_->quarantine_reason() << "\n";
      }
      Result<replication::PollResult> reseeded = follower_->Reseed();
      if (!reseeded.ok()) {
        fail(reseeded.status());
        return true;
      }
      out << "ok: reseeded from manifest seq " << reseeded->manifest_seq
          << " (replay lsn " << reseeded->replay_lsn
          << "); quarantine cleared\n";
      return true;
    }
    if (tokens[1] == "poll") {
      Result<replication::PollResult> polled = follower_->Poll();
      if (!polled.ok()) {
        fail(polled.status());
        return true;
      }
      if (polled->advanced) {
        out << "ok (applied manifest seq " << polled->manifest_seq
            << ", replay lsn " << polled->replay_lsn << ", "
            << polled->read_attempts << " read attempt(s))\n";
      } else {
        out << "ok (nothing new; manifest seq " << polled->manifest_seq
            << ")\n";
      }
      return true;
    }
    if (tokens[1] == "promote") {
      Result<std::unique_ptr<Database>> promoted = follower_->Promote();
      if (!promoted.ok()) {
        fail(promoted.status());
        return true;
      }
      promoted_ = std::move(*promoted);
      db_ = promoted_.get();
      follower_ = nullptr;
      out << "ok: promoted to writable primary (generation "
          << db_->generation() << ", dir " << db_->wal()->dir() << ")\n";
      return true;
    }
    fail(InvalidArgument("use: replica status|poll|promote|reseed"));
    return true;
  }

  fail(InvalidArgument("unknown command '" + cmd + "' (see shell.h)"));
  return true;
}

}  // namespace shell
}  // namespace caddb
