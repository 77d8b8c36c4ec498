#ifndef CADDB_OBS_TRACE_H_
#define CADDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace caddb {
namespace obs {

/// Propagated trace identity: which distributed trace a span belongs to
/// and which span caused it. `trace_id == 0` means "no context" — the
/// receiver starts a new root. This is what crosses thread hand-offs
/// (the server's request queue), the CADF wire (kRequest/kResponse
/// payload extension), and the replication MANIFEST.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// A completed span, as retained in the trace ring buffer and delivered to
/// observers. `parent_id` is 0 for root spans; nested spans on the same
/// thread link to their enclosing span. `trace_id` groups spans into one
/// distributed tree: children inherit it, roots mint a fresh one (or adopt
/// the one a remote caller propagated).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  uint64_t trace_id = 0;
  std::string name;          // "<subsystem>.<operation>", e.g. "wal.fsync"
  uint64_t start_us = 0;     // steady-clock microseconds (ordering only)
  uint64_t duration_us = 0;
  bool slow = false;         // duration >= the tracer's slow threshold
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// Trace collector. Compiled in everywhere but runtime-toggleable: while
/// disabled, starting a Span costs one relaxed atomic load and a branch.
/// While enabled, completed spans are appended to a bounded ring buffer
/// (oldest evicted first); spans at or above the slow threshold are also
/// copied to a separately retained slow-op log so a burst of fast spans
/// cannot evict the interesting ones. Observer callbacks fire on span
/// completion, outside the ring lock.
class Tracer {
 public:
  explicit Tracer(size_t ring_capacity = 2048, size_t slow_capacity = 256);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_slow_threshold_us(uint64_t us) {
    slow_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_us() const {
    return slow_us_.load(std::memory_order_relaxed);
  }

  /// Ring contents (oldest first), or the retained slow-op log.
  std::vector<SpanRecord> Dump(bool slow_only = false) const;
  /// Drops ring + slow log contents; counters and observers stay.
  void Clear();

  /// Spans ever completed while enabled (including ones since evicted).
  uint64_t total_spans() const {
    return total_spans_.load(std::memory_order_relaxed);
  }
  size_t ring_capacity() const { return ring_capacity_; }

  /// The innermost open span of *this* tracer on the calling thread, as a
  /// context a child (possibly in another thread or process) can adopt.
  /// Invalid (trace_id 0) when no span is open or tracing is off.
  TraceContext CurrentContext() const;

  /// A fresh 64-bit trace id: a splitmix64 stream seeded from clock and
  /// pid so two processes do not collide. Never returns 0.
  static uint64_t NewTraceId();

  using Observer = std::function<void(const SpanRecord&)>;
  /// Returns a token for RemoveObserver. Callbacks run on the thread that
  /// completed the span and must not re-enter the tracer.
  int AddObserver(Observer fn);
  void RemoveObserver(int token);

  /// Called by ~Span. Public only for the Span implementation.
  void FinishSpan(SpanRecord&& record);

  /// Steady-clock microseconds; the time base for all span fields.
  static uint64_t NowUs();

 private:
  const size_t ring_capacity_;
  const size_t slow_capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> slow_us_{10000};  // 10ms default
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> total_spans_{0};

  mutable std::mutex ring_mu_;
  std::deque<SpanRecord> ring_;
  std::deque<SpanRecord> slow_;

  mutable std::mutex observers_mu_;
  int next_observer_token_ = 1;
  std::vector<std::pair<int, Observer>> observers_;

  friend class Span;
};

/// RAII timed section. The cheap path is the whole point: when the tracer
/// is disabled and `always_time` is false, construction is one relaxed load
/// plus a branch and destruction is one branch — no clock read, no
/// allocation. Pass a Histogram to also record the duration; with
/// `always_time` the clock runs (and the histogram fills) even while
/// tracing is off, which is reserved for inherently expensive operations
/// (fsync, checkpoint, ship, rebuild, recovery, lock waits) and for the
/// WAL's wal.append and wal.commit spans.
class Span {
 public:
  // Inline so the disabled path compiles down to a relaxed load and a
  // branch at the call site instead of an out-of-line call.
  Span(Tracer* tracer, const char* name, Histogram* histogram = nullptr,
       bool always_time = false)
      : tracer_(tracer), name_(name), histogram_(histogram) {
    if (always_time || (tracer_ != nullptr && tracer_->enabled())) Start();
  }

  // Adopts an explicit parent context instead of the thread-local stack —
  // the hand-off for work executing on a different thread or for a remote
  // caller's wire context (the server's net.request span). An invalid
  // context degrades to the normal root/stack behaviour, so callers can
  // pass whatever they received without checking.
  Span(Tracer* tracer, const char* name, const TraceContext& parent,
       Histogram* histogram = nullptr, bool always_time = false)
      : tracer_(tracer),
        name_(name),
        histogram_(histogram),
        explicit_parent_(parent),
        has_explicit_parent_(true) {
    if (always_time || (tracer_ != nullptr && tracer_->enabled())) Start();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (timed_) Finish();
  }

  /// No-ops unless the span is being recorded into the ring.
  void AddAttribute(const std::string& key, std::string value);
  void AddAttribute(const std::string& key, uint64_t value);

  /// True when the span will produce a ring record on destruction.
  bool recording() const { return recording_; }

  /// This span as a parent for remote/cross-thread children. Invalid when
  /// the span is not recording.
  TraceContext context() const {
    if (!recording_) return TraceContext{};
    return TraceContext{trace_id_, id_};
  }

 private:
  void Start();   // reads the clock; claims an id when tracing is enabled
  void Finish();  // records the histogram and emits the SpanRecord

  Tracer* tracer_;
  const char* name_;
  Histogram* histogram_;
  uint64_t start_us_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t trace_id_ = 0;
  TraceContext explicit_parent_;
  bool has_explicit_parent_ = false;
  bool timed_ = false;      // clock was read at construction
  bool recording_ = false;  // a SpanRecord will be emitted
  std::vector<std::pair<std::string, std::string>> attributes_;
};

}  // namespace obs
}  // namespace caddb

#endif  // CADDB_OBS_TRACE_H_
