// Closed-loop wire sessions: each session sends its next request only
// after the previous response arrived, and checks every response against
// the oracle.
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

/// Parks every session between phases so the main thread can take counter
/// snapshots while the server is idle.
class Gate {
 public:
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    const uint64_t generation = generation_;
    cv_.wait(lock, [&] { return generation_ != generation; });
  }
  void WaitForAll(int sessions) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_ == sessions; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
};

struct Session {
  Session(const WorkloadSpec& spec, const Population& pop, uint32_t seed,
          int index, caddb::net::Client* c)
      : stream(spec, pop, seed, index), client(c) {}

  Stream stream;
  caddb::net::Client* client;
  bool dead = false;
  uint64_t attempted = 0, failed = 0;
  uint64_t prefix_writes = 0;
  uint64_t prefix_hash = kFnvOffset;
  std::vector<PhaseResult> phases;
  std::vector<Span> spans;
  std::vector<Request> traced;
};

uint64_t CounterValue(Database* db, const char* name) {
  return db->observability()->metrics.GetCounter(name)->value();
}

}  // namespace

Counters Snapshot(Instance* inst) {
  Counters c;
  Database* db = inst->db.get();
  c.wal = db->wal()->stats();
  const Database::StorageStats storage = db->storage_stats();
  c.pool = storage.pool;
  c.data_pages = storage.heap.data_pages;
  c.inherit_hits = CounterValue(db, "caddb_inherit_cache_hits_total");
  c.inherit_misses = CounterValue(db, "caddb_inherit_cache_misses_total");
  c.resolutions = CounterValue(db, "caddb_inherit_resolutions_total");
  c.invalidations = CounterValue(db, "caddb_inherit_cache_invalidations_total");
  const caddb::net::ServerStats server = inst->server->stats();
  c.net_requests = server.requests;
  c.net_sheds = server.sheds;
  c.net_bytes = server.bytes_in + server.bytes_out;
  c.disk_bytes = DirectoryBytes(inst->dir);
  {
    std::unique_lock<std::mutex> pause = inst->server->PauseExecution();
    c.live_objects = db->store().size();
  }
  return c;
}

WireResult RunWire(Instance* inst, const WorkloadSpec& spec, uint32_t seed,
                   Oracle* oracle, const std::vector<double>& phase_seconds,
                   bool trace, const std::function<void(size_t)>& at_gate) {
  const size_t phase_count = phase_seconds.size();
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < spec.sessions; ++s) {
    sessions.push_back(std::make_unique<Session>(
        spec, inst->pop, seed, s, inst->clients[s].get()));
    sessions.back()->phases.resize(phase_count);
  }
  Gate gate;
  std::vector<int64_t> phase_end_ns(phase_count, 0);

  const auto issue = [&](Session& s, PhaseResult* phase) {
    Request r = s.stream.Next();
    std::string output;
    bool command_error = false;
    const int64_t t0 = NowNs();
    const Status st = s.client->Execute(r.line, &output, &command_error);
    const int64_t t1 = NowNs();
    ++s.attempted;
    if (!st.ok() || command_error || !oracle->Accept(r, output)) {
      if (++s.failed <= 3) {
        std::fprintf(stderr, "wrong response to '%s': %s%s", r.line.c_str(),
                     st.ok() ? "" : st.ToString().c_str(), output.c_str());
      }
      // A shed leaves the connection usable; anything else ends it.
      if (!st.ok() && st.code() != caddb::Code::kUnavailable) s.dead = true;
    }
    if (phase == nullptr) {
      if (IsWrite(r.op)) ++s.prefix_writes;
      s.prefix_hash = Fnv1a(s.prefix_hash, r.line + "\n");
      return;
    }
    const bool record = trace && r.id % 2 == 0;
    phase->samples.push_back({t1, (t1 - t0) / 1e3, r.op, record});
    if (record) {
      s.spans.push_back({r.id, 0, r.id, "net.request", t0, t1});
      s.traced.push_back(std::move(r));
    }
  };

  std::vector<std::thread> threads;
  for (auto& owned : sessions) {
    Session* s = owned.get();
    threads.emplace_back([&, s] {
      for (int i = 0; i < spec.prefix_requests && !s->dead; ++i) {
        issue(*s, nullptr);
      }
      for (size_t p = 0; p < phase_count; ++p) {
        gate.Arrive();
        while (!s->dead && NowNs() < phase_end_ns[p]) {
          issue(*s, &s->phases[p]);
        }
      }
    });
  }

  WireResult out;
  out.phases.resize(phase_count);
  int64_t phase_start_ns = 0;
  for (size_t p = 0; p < phase_count; ++p) {
    gate.WaitForAll(spec.sessions);
    if (p == 0) {
      out.after_prefix = Snapshot(inst);
    } else {
      out.phases[p - 1].seconds = (NowNs() - phase_start_ns) / 1e9;
    }
    at_gate(p);
    // Written before Release, read by the sessions after it.
    phase_start_ns = NowNs();
    out.phases[p].start_ns = phase_start_ns;
    phase_end_ns[p] =
        phase_start_ns + static_cast<int64_t>(phase_seconds[p] * 1e9);
    gate.Release();
  }
  for (std::thread& t : threads) t.join();
  out.phases.back().seconds = (NowNs() - phase_start_ns) / 1e9;
  out.at_end = Snapshot(inst);

  for (auto& s : sessions) {
    out.attempted += s->attempted;
    out.failed += s->failed;
    out.prefix_writes += s->prefix_writes;
    out.stream_hash = Fnv1a(out.stream_hash, std::to_string(s->prefix_hash));
    for (size_t p = 0; p < phase_count; ++p) {
      std::vector<Sample>& dst = out.phases[p].samples;
      const std::vector<Sample>& src = s->phases[p].samples;
      dst.insert(dst.end(), src.begin(), src.end());
    }
    out.spans.insert(out.spans.end(), s->spans.begin(), s->spans.end());
    for (Request& r : s->traced) out.traced.push_back(std::move(r));
  }
  return out;
}

}  // namespace perfbench
