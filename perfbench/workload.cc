// Workload definitions, population, request streams, the response oracle
// and the timed set-up of a served database.
#include <filesystem>

#include "bench.h"
#include "query/expansion.h"

namespace perfbench {

namespace fs = std::filesystem;
using caddb::Surrogate;
using caddb::Value;

namespace {

// browse: one reader session over a fully resident population. Skewed leaf
// reads of an inherited attribute (eight hops) dominate, so the time goes
// to net, shell and inherit; the 5% root writes invalidate inheritors.
// edit: two writer sessions on disjoint chains; 80% writes load the WAL,
// the exec lock and cache invalidation, 20% reads wait behind the other
// session's writes. Two, not four: every thread shares one CPU (see
// PinToFastestCpu), and four sessions' latencies measured the scheduler's
// interleaving more than the server (README.md has the spreads).
// page: uniform reads over 4250 objects with a 400-object resident budget
// and an 8-page buffer pool (the objects fill about 34 pages), so reads
// fault objects in from pages. The 5% writes are what trigger
// MaybeTrimResident (it runs only after a write).
const WorkloadSpec kWorkloads[] = {
    {"browse", 1, 200, 12, 90, 5, 0, 5, true, 4000, 0, 256},
    {"edit", 2, 192, 0, 20, 40, 40, 0, false, 1000, 0, 256},
    {"page", 1, 250, 0, 95, 5, 0, 0, false, 1000, 400, 8},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Status Populate(Database* db, const WorkloadSpec& spec, uint32_t seed,
                Population* pop) {
  caddb::workload::HierarchyParams hp;
  hp.seed = seed;
  hp.depth = kDepth;
  hp.chains = spec.chains;
  CADDB_ASSIGN_OR_RETURN(pop->hier,
                         caddb::workload::GenerateDeepHierarchy(db, hp));
  if (spec.structures > 0) {
    caddb::workload::SteelParams sp;
    sp.seed = seed;
    sp.structures = spec.structures;
    CADDB_ASSIGN_OR_RETURN(pop->yard,
                           caddb::workload::GenerateSteelYardInto(db, sp));
  }
  return caddb::OkStatus();
}

Stream::Stream(const WorkloadSpec& spec, const Population& pop, uint32_t seed,
               int session)
    : spec_(spec),
      pop_(pop),
      rng_(Fnv1a(kFnvOffset, spec.name + "/" + std::to_string(seed) + "/" +
                                 std::to_string(session))),
      session_tag_(static_cast<uint64_t>(session + 1) << 32) {
  for (int c = session; c < spec.chains; c += spec.sessions) {
    chains_.push_back(c);
  }
}

int Stream::PickChain() {
  const size_t n = chains_.size();
  if (spec_.skewed && rng_() % 100 < 80) {
    return chains_[rng_() % std::max<size_t>(1, n / 5)];
  }
  return chains_[rng_() % n];
}

Request Stream::Next() {
  Request r;
  r.id = session_tag_ | ++seq_;
  const int roll = static_cast<int>(rng_() % 100);
  if (roll < spec_.get_pct) {
    r.op = Op::kGet;
  } else if (roll < spec_.get_pct + spec_.set_root_pct) {
    r.op = Op::kSetRoot;
  } else if (roll < spec_.get_pct + spec_.set_root_pct + spec_.set_local_pct) {
    r.op = Op::kSetLocal;
  } else {
    r.op = Op::kExpand;
  }
  if (r.op == Op::kExpand) {
    r.structure = static_cast<int>(rng_() % pop_.yard.structures.size());
    r.target = pop_.yard.structures[r.structure].id;
    r.line = "expand @" + std::to_string(r.target);
    return r;
  }
  r.chain = PickChain();
  const std::vector<Surrogate>& nodes = pop_.hier.chain_nodes[r.chain];
  switch (r.op) {
    case Op::kGet:
      r.target = nodes[kDepth].id;
      r.attr = "A";
      r.line = "get @" + std::to_string(r.target) + " A";
      return r;
    case Op::kSetRoot:
      r.target = nodes[0].id;
      r.attr = "A";
      break;
    default:
      r.level = 1 + static_cast<int>(rng_() % kDepth);
      r.target = nodes[r.level].id;
      r.attr = "C" + std::to_string(r.level);
      break;
  }
  r.value = static_cast<int64_t>(rng_() % 1000000);
  r.line = "set @" + std::to_string(r.target) + " " + r.attr + " i:" +
           std::to_string(r.value);
  return r;
}

Oracle::Oracle(const Population& pop)
    : pop_(pop),
      root_(pop.hier.root_values),
      local_(pop.hier.root_values.size()) {}

std::string Oracle::Expected(const Request& r) const {
  switch (r.op) {
    case Op::kGet:
      return std::to_string(root_[r.chain]) + "\n";
    case Op::kExpand:
      return pop_.expand_expected[r.structure];
    default:
      return "ok\n";
  }
}

void Oracle::Apply(const Request& r) {
  if (r.op == Op::kSetRoot) root_[r.chain] = r.value;
  if (r.op == Op::kSetLocal) local_[r.chain][r.level] = r.value;
}

bool Oracle::Accept(const Request& r, const std::string& output) {
  if (output != Expected(r)) return false;
  Apply(r);
  return true;
}

uint64_t Oracle::VerifyDatabase(Database* db, uint64_t* reads) const {
  uint64_t wrong = 0;
  const auto check = [&](uint64_t id, const std::string& attr, int64_t want) {
    ++*reads;
    Result<Value> v = db->Get(Surrogate(id), attr);
    if (!v.ok() || v->ToString() != std::to_string(want)) ++wrong;
  };
  for (size_t c = 0; c < root_.size(); ++c) {
    const std::vector<Surrogate>& nodes = pop_.hier.chain_nodes[c];
    check(nodes[kDepth].id, "A", root_[c]);
    for (const auto& [level, value] : local_[c]) {
      check(nodes[level].id, "C" + std::to_string(level), value);
    }
  }
  return wrong;
}

caddb::wal::DurabilityOptions DurabilityFor(const WorkloadSpec& spec) {
  caddb::wal::DurabilityOptions options;
  options.wal.sync = caddb::wal::SyncPolicy::kAlways;
  options.resident_object_budget = spec.resident_object_budget;
  options.buffer_pool_pages = spec.buffer_pool_pages;
  return options;
}

uint64_t PhaseResult::reads() const {
  uint64_t n = 0;
  for (const Sample& s : samples) n += s.op == Op::kGet;
  return n;
}

uint64_t PhaseResult::writes() const {
  uint64_t n = 0;
  for (const Sample& s : samples) n += IsWrite(s.op);
  return n;
}

void Instance::Teardown() {
  for (auto& client : clients) client->Close();
  clients.clear();
  if (server != nullptr) server->Shutdown();
  server.reset();
  db.reset();
}

Result<std::unique_ptr<Instance>> SetUp(const WorkloadSpec& spec,
                                        uint32_t seed,
                                        const std::string& dir) {
  auto inst = std::make_unique<Instance>();
  inst->dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  const caddb::wal::DurabilityOptions options = DurabilityFor(spec);

  const int64_t t0 = NowNs();
  {
    // Loading runs with the budget in force and never checkpoints, as a
    // client filling a fresh caddb_server would.
    CADDB_ASSIGN_OR_RETURN(std::unique_ptr<Database> loader,
                           Database::Open(dir, options));
    CADDB_RETURN_IF_ERROR(Populate(loader.get(), spec, seed, &inst->pop));
  }
  const int64_t t1 = NowNs();
  CADDB_ASSIGN_OR_RETURN(inst->db, Database::Open(dir, options));
  const int64_t t2 = NowNs();
  for (Surrogate s : inst->pop.yard.structures) {
    CADDB_ASSIGN_OR_RETURN(caddb::ExpansionNode tree,
                           inst->db->expander().Expand(s, {}));
    inst->pop.expand_expected.push_back(caddb::Expander::Render(tree));
  }
  const int64_t t3 = NowNs();
  CADDB_ASSIGN_OR_RETURN(inst->server,
                         caddb::net::Server::Start(inst->db.get()));
  for (int s = 0; s < spec.sessions; ++s) {
    caddb::net::ClientOptions client_options;
    client_options.role = caddb::net::SessionRole::kWritable;
    client_options.ns = spec.name + "-" + std::to_string(s);
    CADDB_ASSIGN_OR_RETURN(
        std::unique_ptr<caddb::net::Client> client,
        caddb::net::Client::Connect("127.0.0.1", inst->server->port(),
                                    client_options));
    inst->clients.push_back(std::move(client));
  }
  const int64_t t4 = NowNs();
  inst->load_s = (t1 - t0) / 1e9;
  inst->open_s = (t2 - t1) / 1e9;
  // Rendering the expected expansions is the oracle's work, not set-up.
  inst->total_s = ((t2 - t0) + (t4 - t3)) / 1e9;
  return inst;
}

}  // namespace perfbench
