//===- core/Rebalancer.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "core/Rebalancer.h"

#include "core/ObjectManager.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <limits>

using namespace parcs;
using namespace parcs::scoopp;

SloRebalancer::SloRebalancer(ScooppRuntime &Runtime, telemetry::Plane &Plane,
                             int MaxMigrations)
    : Runtime(Runtime), Plane(Plane), MaxMigrations(MaxMigrations) {
  Plane.onSloEdge([this](const telemetry::SloSpec &Spec, bool Breach,
                         int64_t AtNs) { onEdge(Spec, Breach, AtNs); });
}

SloRebalancer::~SloRebalancer() { Plane.onSloEdge(nullptr); }

void SloRebalancer::onEdge(const telemetry::SloSpec &Spec, bool Breach,
                           int64_t AtNs) {
  if (!Breach)
    return;
  ++Breaches;
  metrics::Registry::global().counter("om.rebalance_breaches").add(1);
  if (Busy || Triggered >= static_cast<uint64_t>(MaxMigrations) ||
      (LastMoveNs >= 0 &&
       AtNs - LastMoveNs < Cooldown.nanosecondsCount())) {
    ++Skipped;
    metrics::Registry::global().counter("om.rebalance_skipped").add(1);
    return;
  }
  PARCS_LOG(Info, "rebalancer: slo breach on '" << Spec.Series
                                                << "', scheduling migration");
  Busy = true;
  // Runs at the current virtual time but outside the collector's stack --
  // spawn() enqueues a fresh event, it does not resume inline.
  Runtime.sim().spawn(rebalanceOnce());
}

sim::Task<void> SloRebalancer::rebalanceOnce() {
  // Hottest healthy node by the OM's own load metric (hosted objects +
  // queued dispatch work); ties break toward the lower node id, so the
  // choice is deterministic.
  int Hot = -1, HotLoad = -1;
  for (int N = 0; N < Runtime.nodeCount(); ++N) {
    if (!Runtime.nodeHealthy(N))
      continue;
    int Load = Runtime.om(N).loadMetric();
    if (Load > HotLoad) {
      Hot = N;
      HotLoad = Load;
    }
  }
  // Coldest healthy, non-saturated destination.
  int Cold = -1, ColdLoad = std::numeric_limits<int>::max();
  for (int N = 0; N < Runtime.nodeCount(); ++N) {
    if (N == Hot || !Runtime.nodeHealthy(N) || Runtime.nodeSaturated(N))
      continue;
    int Load = Runtime.om(N).loadMetric();
    if (Load < ColdLoad) {
      Cold = N;
      ColdLoad = Load;
    }
  }
  if (Hot < 0 || Cold < 0 || HotLoad - ColdLoad < MinLoadGap) {
    ++Skipped;
    metrics::Registry::global().counter("om.rebalance_skipped").add(1);
    Busy = false;
    co_return;
  }
  // Victim: the first migratable parallel object on the hot node.  All
  // IOs publish as "io:<class>:<id>", and the registry iterates sorted,
  // so this pick is deterministic too.
  std::string Victim;
  for (const std::string &Name : Runtime.endpoint(Hot).publishedNames()) {
    if (Name.rfind("io:", 0) == 0 && !Runtime.endpoint(Hot).isParked(Name)) {
      Victim = Name;
      break;
    }
  }
  if (Victim.empty()) {
    ++Skipped;
    metrics::Registry::global().counter("om.rebalance_skipped").add(1);
    Busy = false;
    co_return;
  }
  ++Triggered;
  LastMoveNs = Runtime.sim().now().nanosecondsCount();
  metrics::Registry::global().counter("om.rebalance_migrations").add(1);
  trace::instant(Hot, 0, "om.rebalance.migrate", LastMoveNs);
  PARCS_LOG(Info, "rebalancer: migrating '" << Victim << "' from node " << Hot
                                            << " (load " << HotLoad
                                            << ") to node " << Cold
                                            << " (load " << ColdLoad << ")");
  ErrorOr<ParallelRef> Moved = co_await Runtime.om(Hot).migrate(Victim, Cold);
  if (Moved) {
    ++Succeeded;
  } else {
    metrics::Registry::global().counter("om.rebalance_failed").add(1);
    PARCS_LOG(Warn, "rebalancer: migration of '"
                        << Victim << "' failed: " << Moved.error().str());
  }
  Busy = false;
}
