//===- core/ObjectManager.h - Per-node OM ------------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SCOOPP object manager: one per processing node.  "The OM controls
/// the grain-size adaptation by instructing PO objects to perform method
/// call aggregation and/or object agglomeration", and performs load
/// management for new-object placement.  POs on the same node use the OM
/// through direct calls; peer OMs cooperate through small RPCs (getLoad).
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_CORE_OBJECTMANAGER_H
#define PARCS_CORE_OBJECTMANAGER_H

#include "core/Scoopp.h"

namespace parcs::scoopp {

/// Exponentially weighted average of method execution times per class,
/// the grain-size estimate behind adaptive decisions.
class GrainEstimator {
public:
  void note(sim::SimTime Exec) {
    double Sample = Exec.toSecondsF();
    if (Count == 0)
      Average = Sample;
    else
      Average = 0.8 * Average + 0.2 * Sample;
    ++Count;
  }
  bool hasData() const { return Count > 0; }
  sim::SimTime average() const { return sim::SimTime::fromSecondsF(Average); }

private:
  double Average = 0.0;
  uint64_t Count = 0;
};

/// Per-node object manager.  Also remotely callable ("getLoad") so peer
/// OMs can implement least-loaded placement.
class ObjectManager : public CallHandler {
public:
  ObjectManager(ScooppRuntime &Runtime, int NodeId)
      : Runtime(Runtime), NodeId(NodeId) {}

  int nodeId() const { return NodeId; }
  ScooppRuntime &runtime() { return Runtime; }

  /// Number of implementation objects hosted on this node.
  int hostedObjects() const { return Hosted; }

  /// Called when an IO is created on this node (by the factory or by a
  /// local agglomerated creation).
  void noteObjectHosted() { ++Hosted; }
  void noteObjectReleased() {
    --Hosted;
    assert(Hosted >= 0 && "released more objects than hosted");
  }

  /// Grain-size estimate of \p ClassName on this node.  Each ImplAdapter
  /// takes it once, at construction, and feeds it the simulated execution
  /// time of every method it runs; the reference stays valid for the OM's
  /// lifetime.
  GrainEstimator &grainEstimator(const std::string &ClassName) {
    return Grains[ClassName];
  }

  /// Decides whether a new object of \p ClassName should be created
  /// locally (object agglomeration).
  bool shouldAgglomerate(const std::string &ClassName) const;

  /// Current method-call aggregation factor for \p ClassName (1 = off).
  int aggregationFactor(const std::string &ClassName) const;

  /// Picks the node for a new object of \p ClassName per the placement
  /// policy.  May RPC peer OMs (LeastLoaded, PowerOfTwoChoices).
  sim::Task<int> placeObject(std::string ClassName);

  /// Live object migration: moves the implementation object published on
  /// this node as \p Name to \p DstNode without its callers noticing.
  /// Protocol: park the mailbox (new calls queue), drain executing calls,
  /// snapshot state through the serial layer, adopt at the destination
  /// (factory "create_migrated"), then cut over atomically -- moved
  /// tombstone + route-table bump + exactly-once replay of the parked
  /// calls through the destination's dedup window.  Returns the object's
  /// new ref.  On failure the park is cancelled and the source copy stays
  /// authoritative; a source crash mid-protocol aborts (the PR 5
  /// crash/park/restart machinery then owns recovery).
  sim::Task<ErrorOr<ParallelRef>> migrate(std::string Name, int DstNode);

  /// Queries \p Peer's load over RPC; falls back to \p Fallback (and feeds
  /// the health tracker) when the peer is unreachable.
  sim::Task<int> probeLoad(int Peer, int Fallback);

  /// Load metric used by LeastLoaded (hosted objects + queued dispatch
  /// work on this node's endpoint).
  int loadMetric() const;

  /// Remote interface: "getLoad" -> int32.
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override;

private:
  ScooppRuntime &Runtime;
  int NodeId;
  int Hosted = 0;
  int NextPlacement = 0;
  std::map<std::string, GrainEstimator> Grains;
};

} // namespace parcs::scoopp

#endif // PARCS_CORE_OBJECTMANAGER_H
