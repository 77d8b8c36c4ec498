// Per-layer timing from outside the program: the traced run replays the
// request lines its wire phase sent, once per layer, and times that
// layer's public entry point around each line. Every pass applies the
// stream's writes, so caches, residency and trims evolve as they did on
// the wire. A layer's self time is its median minus the medians of the
// layers it calls for the same lines.
#include <filesystem>
#include <sstream>

#include "bench.h"
#include "net/protocol.h"
#include "shell/dispatcher.h"
#include "store/object_codec.h"
#include "wal/record.h"
#include "wal/wal.h"

namespace perfbench {

namespace {

using caddb::Surrogate;
using caddb::Value;

struct Recorder {
  std::vector<Span>* spans;
  uint64_t next_id = 1;
  /// Records a span and returns its id.
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               int64_t start, int64_t end) {
    const uint64_t id = (uint64_t{1} << 63) | next_id++;
    spans->push_back({id, parent, request, name, start, end});
    return id;
  }
};

double P50(const std::vector<Span>& spans, const char* name, double unit_ns) {
  return Median(Durations(spans, name, unit_ns));
}

}  // namespace

std::map<std::string, double> ReplayLayers(
    Instance* inst, Oracle* oracle,
    const std::vector<Request>& requests, const std::string& scratch_dir,
    std::vector<Span>* spans, uint64_t* checked, uint64_t* failed) {
  Database* db = inst->db.get();
  Recorder rec{spans};
  const size_t n = requests.size();
  // Span ids one layer up, per replayed line, to link children to.
  std::vector<uint64_t> wire_span(n), shell_span(n), core_span(n),
      inherit_span(n);
  for (size_t i = 0; i < n; ++i) wire_span[i] = requests[i].id;

  const auto check = [&](bool ok) {
    ++*checked;
    if (!ok) ++*failed;
  };
  // Applies a write through the Database, untimed, so the next pass sees
  // the state the wire phase produced.
  const auto apply_write = [&](const Request& r) {
    check(db->Set(Surrogate(r.target), r.attr, Value::Int(r.value)).ok());
    oracle->Apply(r);
  };

  std::map<std::string, double> m;
  std::unique_lock<std::mutex> pause = inst->server->PauseExecution();

  // shell: Dispatcher::ExecuteLine, the per-session entry of net::Server.
  {
    caddb::shell::Dispatcher dispatcher(db);
    for (size_t i = 0; i < n; ++i) {
      const Request& r = requests[i];
      std::ostringstream out;
      const int64_t t0 = NowNs();
      dispatcher.ExecuteLine(r.line, out);
      const int64_t t1 = NowNs();
      shell_span[i] = rec.Add("shell.execute", wire_span[i], r.id, t0, t1);
      check(oracle->Accept(r, out.str()));
    }
  }

  // core: the Database entry points the dispatcher calls.
  uint64_t faulted_in = 0, core_reads = 0;
  for (size_t i = 0; i < n; ++i) {
    const Request& r = requests[i];
    const Surrogate target(r.target);
    if (r.op == Op::kGet) {
      const size_t resident_before = db->store().resident_objects();
      const int64_t t0 = NowNs();
      Result<Value> v = db->Get(target, r.attr);
      const int64_t t1 = NowNs();
      const size_t resident_after = db->store().resident_objects();
      if (resident_after > resident_before) {
        faulted_in += resident_after - resident_before;
      }
      ++core_reads;
      core_span[i] = rec.Add("core.get", shell_span[i], r.id, t0, t1);
      check(v.ok() && oracle->Accept(r, v->ToString() + "\n"));
    } else if (r.op == Op::kExpand) {
      const int64_t t0 = NowNs();
      Result<caddb::ExpansionNode> tree = db->expander().Expand(target, {});
      const int64_t t1 = NowNs();
      core_span[i] = rec.Add("core.expand", shell_span[i], r.id, t0, t1);
      check(tree.ok() &&
            oracle->Accept(r, caddb::Expander::Render(*tree)));
    } else {
      const int64_t t0 = NowNs();
      const Status st = db->Set(target, r.attr, Value::Int(r.value));
      const int64_t t1 = NowNs();
      core_span[i] = rec.Add("core.set", shell_span[i], r.id, t0, t1);
      check(st.ok() && oracle->Accept(r, "ok\n"));
    }
  }

  // inherit: InheritanceManager::GetAttribute, the resolver behind Get.
  for (size_t i = 0; i < n; ++i) {
    const Request& r = requests[i];
    if (IsWrite(r.op)) {
      apply_write(r);
    } else if (r.op == Op::kGet) {
      const int64_t t0 = NowNs();
      Result<Value> v =
          db->inheritance().GetAttribute(Surrogate(r.target), r.attr);
      const int64_t t1 = NowNs();
      inherit_span[i] = rec.Add("inherit.resolve", core_span[i], r.id, t0, t1);
      check(v.ok() && oracle->Accept(r, v->ToString() + "\n"));
    }
  }

  // storage + store: PagedHeap::Fetch of the leaf's record through the
  // buffer pool, then the page payload decode a fault-in performs.
  for (size_t i = 0; i < n; ++i) {
    const Request& r = requests[i];
    if (IsWrite(r.op)) {
      apply_write(r);
    } else if (r.op == Op::kGet) {
      const int64_t t0 = NowNs();
      Result<std::string> payload = db->heap()->Fetch(r.target);
      const int64_t t1 = NowNs();
      rec.Add("storage.fetch", inherit_span[i], r.id, t0, t1);
      check(payload.ok());
      if (!payload.ok()) continue;
      const int64_t t2 = NowNs();
      auto object = caddb::store_codec::DecodeObjectPayload(*payload);
      const int64_t t3 = NowNs();
      rec.Add("store.decode", inherit_span[i], r.id, t2, t3);
      check(object.ok());
    }
  }

  // wal: the same write records appended to a scratch log with the live
  // log's options, then Wal::Sync.
  {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir, ec);
    caddb::wal::WalOptions options;
    options.sync = caddb::wal::SyncPolicy::kAlways;
    Result<std::unique_ptr<caddb::wal::Wal>> wal =
        caddb::wal::Wal::Open(scratch_dir, options, 1);
    check(wal.ok());
    for (size_t i = 0; wal.ok() && i < n; ++i) {
      const Request& r = requests[i];
      if (!IsWrite(r.op)) continue;
      const caddb::wal::Record record = caddb::wal::Record::SetAttribute(
          caddb::wal::kAutoCommitTxn, r.target, r.attr, Value::Int(r.value));
      const int64_t t0 = NowNs();
      Result<uint64_t> lsn = (*wal)->Append(record);
      const int64_t t1 = NowNs();
      const Status synced = (*wal)->Sync();
      const int64_t t2 = NowNs();
      rec.Add("wal.append", core_span[i], r.id, t0, t1);
      rec.Add("wal.sync", core_span[i], r.id, t1, t2);
      check(lsn.ok() && synced.ok());
    }
    if (wal.ok()) check((*wal)->Close().ok());
    std::filesystem::remove_all(scratch_dir, ec);
  }

  // net: frame encode and decode of each request, as client and server do.
  for (size_t i = 0; i < n; ++i) {
    const Request& r = requests[i];
    const int64_t t0 = NowNs();
    const std::string frame = caddb::net::EncodeFrame(
        caddb::net::FrameType::kRequest,
        caddb::net::EncodeRequestPayload(r.id, r.line));
    const int64_t t1 = NowNs();
    caddb::net::FrameDecoder decoder;
    caddb::net::Frame decoded;
    uint64_t id = 0;
    std::string line;
    const bool ok = decoder.Feed(frame.data(), frame.size()).ok() &&
                    decoder.Next(&decoded) &&
                    caddb::net::DecodeRequestPayload(decoded.payload, &id,
                                                     &line)
                        .ok();
    const int64_t t2 = NowNs();
    rec.Add("net.frame_encode", wire_span[i], r.id, t0, t1);
    rec.Add("net.frame_decode", wire_span[i], r.id, t1, t2);
    check(ok && id == r.id && line == r.line);
  }

  const std::vector<Span>& s = *spans;
  const double shell_p50 = P50(s, "shell.execute", 1e3);
  std::vector<double> core_us = Durations(s, "core.get", 1e3);
  for (const char* name : {"core.set", "core.expand"}) {
    const std::vector<double> more = Durations(s, name, 1e3);
    core_us.insert(core_us.end(), more.begin(), more.end());
  }
  m["shell.execute_p50_us"] = shell_p50;
  m["shell.self_p50_us"] = SelfP50(shell_p50, {Median(core_us)});
  m["core.get_p50_us"] = P50(s, "core.get", 1e3);
  m["core.set_p50_us"] = P50(s, "core.set", 1e3);
  m["store.fault_ins_per_read"] =
      core_reads == 0 ? 0 : static_cast<double>(faulted_in) / core_reads;
  m["store.decode_p50_ns"] = P50(s, "store.decode", 1);
  m["storage.fetch_p50_ns"] = P50(s, "storage.fetch", 1);
  m["wal.append_p50_ns"] = P50(s, "wal.append", 1);
  m["wal.sync_p50_us"] = P50(s, "wal.sync", 1e3);
  m["net.frame_encode_ns"] = P50(s, "net.frame_encode", 1);
  m["net.frame_decode_ns"] = P50(s, "net.frame_decode", 1);
  m["inherit.resolve_p50_us"] = P50(s, "inherit.resolve", 1e3);
  m["core.self_p50_us"] =
      SelfP50(m["core.get_p50_us"], {m["inherit.resolve_p50_us"]});
  return m;
}

}  // namespace perfbench
