#ifndef CADDB_OBS_OBSERVABILITY_H_
#define CADDB_OBS_OBSERVABILITY_H_

#include <memory>

#include "obs/history.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace caddb {
namespace obs {

/// The observability bundle every instrumented subsystem points at: one
/// metrics registry, one tracer, one structured event log, and one
/// metrics-history ring. A Database owns its own bundle (so two databases
/// in one process — e.g. a primary and its follower — keep separate
/// books); see SharedOrOwned for components built without one.
struct Observability {
  MetricsRegistry metrics;
  Tracer trace;
  EventLog log;
  MetricsHistory history{&metrics};

  Observability() {
    log.set_tracer(&trace);
    log.BindMetrics(&metrics);
  }
};

/// The one fallback rule for every instrumented component: report into
/// `shared` when the caller passed a bundle, otherwise into a private
/// bundle created in `*owned` (which the component keeps for its
/// lifetime). So two standalone components never see each other's counts,
/// and a component's counter views always read its own bundle.
inline Observability* SharedOrOwned(Observability* shared,
                                    std::unique_ptr<Observability>* owned) {
  if (shared != nullptr) return shared;
  *owned = std::make_unique<Observability>();
  return owned->get();
}

}  // namespace obs
}  // namespace caddb

#endif  // CADDB_OBS_OBSERVABILITY_H_
