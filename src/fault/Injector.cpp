//===- fault/Injector.cpp -------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "fault/Injector.h"

#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"

using namespace parcs;
using namespace parcs::fault;

Injector::~Injector() {
  if (Net && Net->faultHook() == this)
    Net->setFaultHook(nullptr);
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter("fault.crashes").add(Stats.Crashes);
  Reg.counter("fault.restarts").add(Stats.Restarts);
  Reg.counter("fault.loss_dropped").add(Stats.LossDropped);
  Reg.counter("fault.partition_dropped").add(Stats.PartitionDropped);
  Reg.counter("fault.node_down_dropped").add(Stats.NodeDownDropped);
  Reg.counter("fault.corrupted").add(Stats.Corrupted);
  Reg.counter("fault.delayed").add(Stats.Delayed);
}

void Injector::attach(vm::Cluster &Cluster, net::Network &Net) {
  assert(!this->Cluster && "attach called twice");
  this->Cluster = &Cluster;
  this->Net = &Net;
  Net.setFaultHook(this);
  for (const CrashEvent &C : Plan.Crashes) {
    assert(C.Node >= 0 && C.Node < Cluster.nodeCount() &&
           "crash clause names a node outside the cluster");
    assert(C.At >= Sim.now() && "crash scheduled in the past");
    Sim.schedule(C.At - Sim.now(), [this, C] {
      this->Cluster->node(C.Node).crash();
      ++Stats.Crashes;
      trace::instant(C.Node, 0, "fault.crash", Sim.now().nanosecondsCount());
      LogNodeScope Scope(C.Node);
      PARCS_LOG(Info, "fault: node " << C.Node << " crashed");
    });
    if (!C.RestartAt.isZero())
      Sim.schedule(C.RestartAt - Sim.now(), [this, C] {
        this->Cluster->node(C.Node).restart();
        ++Stats.Restarts;
        trace::instant(C.Node, 0, "fault.restart",
                       Sim.now().nanosecondsCount());
        LogNodeScope Scope(C.Node);
        PARCS_LOG(Info, "fault: node " << C.Node << " restarted");
      });
  }
}

bool Injector::nodeAlive(int Node) const {
  if (!Cluster || Node < 0 || Node >= Cluster->nodeCount())
    return true;
  return Cluster->node(Node).alive();
}

bool Injector::activeNow(sim::SimTime From, sim::SimTime Until) const {
  sim::SimTime Now = Sim.now();
  if (Now < From)
    return false;
  return Until.isZero() || Now < Until;
}

sim::SimTime Injector::extraLatency(int, int) {
  sim::SimTime Total;
  for (const LatencyClause &L : Plan.Latencies)
    if (activeNow(L.From, L.Until))
      Total += L.Extra;
  if (Total > sim::SimTime())
    ++Stats.Delayed;
  return Total;
}

net::FaultHook::Verdict Injector::onDeliver(int Src, int Dst,
                                            std::vector<uint8_t> &Payload) {
  // Fixed adjudication order keeps the Rng draw sequence (and therefore
  // the whole run) a pure function of the delivery sequence: the
  // every-Nth pattern and structural checks first (no draws), then one
  // draw per active loss clause, then one draw (plus one position draw on
  // a hit) per active corruption clause.
  ++Judged;
  if (Plan.DropEveryNth > 0 &&
      Judged % static_cast<uint64_t>(Plan.DropEveryNth) == 0) {
    ++Stats.LossDropped;
    return Verdict::DropLoss;
  }
  if (!nodeAlive(Dst)) {
    ++Stats.NodeDownDropped;
    return Verdict::DropNodeDown;
  }
  for (const Partition &P : Plan.Partitions) {
    bool Matches = (Src == P.NodeA && Dst == P.NodeB) ||
                   (Src == P.NodeB && Dst == P.NodeA);
    if (Matches && activeNow(P.From, P.Until)) {
      ++Stats.PartitionDropped;
      return Verdict::DropPartition;
    }
  }
  for (const LossClause &L : Plan.Losses)
    if (activeNow(L.From, L.Until) && Random.nextDouble() < L.Probability) {
      ++Stats.LossDropped;
      return Verdict::DropLoss;
    }
  for (const CorruptClause &C : Plan.Corruptions)
    if (activeNow(C.From, C.Until) && Random.nextDouble() < C.Probability &&
        !Payload.empty()) {
      uint64_t Bit = Random.nextBelow(Payload.size() * 8);
      Payload[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
      ++Stats.Corrupted;
      trace::instant(Dst, 0, "fault.corrupt", Sim.now().nanosecondsCount());
      LogNodeScope Scope(Dst);
      PARCS_LOG(Debug, "fault: corrupted bit " << Bit << " of " << Src << "->"
                                               << Dst << " payload");
    }
  return Verdict::Deliver;
}
