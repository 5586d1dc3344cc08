//===- core/Runtime.cpp - ScooppRuntime boot ------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "core/ImplAdapter.h"
#include "core/ObjectManager.h"
#include "core/Scoopp.h"

#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"

using namespace parcs;
using namespace parcs::scoopp;

namespace {

/// The per-node object factory of Fig. 6: instantiates IOs at request and
/// returns their published names.  Registered in the "boot code of each
/// node" (the runtime constructor).
class FactoryHandler : public CallHandler {
public:
  FactoryHandler(ScooppRuntime &Runtime, int NodeId)
      : Runtime(Runtime), NodeId(NodeId) {}

  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    // Runs before any suspension, while the dispatcher's handoff slot is
    // still ours (Task is lazy).
    uint64_t DispatchCtx = trace::takeHandoff();
    if (Method == "create") {
      std::string ClassName;
      if (!serial::decodeValues(Args, ClassName))
        co_return Error(ErrorCode::MalformedMessage, "create args");
      sim::Simulator &Sim = Runtime.cluster().node(NodeId).sim();
      int64_t StartNs = Sim.now().nanosecondsCount();
      // Object construction cost on the hosting node.
      co_await Runtime.cluster().node(NodeId).computeWork(
          vm::WorkKind::Allocation, sim::SimTime::microseconds(10));
      auto Made = Runtime.instantiateImpl(NodeId, ClassName);
      if (!Made)
        co_return Made.error();
      if (trace::enabled()) {
        uint64_t CreateCtx = trace::mintCausalId();
        trace::completeCtx(NodeId, 0, "scoopp.factory_create", StartNs,
                           Sim.now().nanosecondsCount() - StartNs, CreateCtx,
                           DispatchCtx);
      }
      co_return serial::encodeValues(Made->first);
    }
    if (Method == "create_migrated") {
      // Adoption half of a live migration: instantiate the class here and
      // hydrate it from the source's state snapshot before the first
      // forwarded call can arrive (the source only cuts over after this
      // reply, so ordering is safe by construction).
      std::string ClassName;
      Bytes State;
      if (!serial::decodeValues(Args, ClassName, State))
        co_return Error(ErrorCode::MalformedMessage, "create_migrated args");
      sim::Simulator &Sim = Runtime.cluster().node(NodeId).sim();
      int64_t StartNs = Sim.now().nanosecondsCount();
      co_await Runtime.cluster().node(NodeId).computeWork(
          vm::WorkKind::Allocation, sim::SimTime::microseconds(10));
      auto Made = Runtime.instantiateImpl(NodeId, ClassName);
      if (!Made)
        co_return Made.error();
      serial::InputArchive In(State);
      if (!Made->second->restoreState(In)) {
        Runtime.endpoint(NodeId).unpublish(Made->first);
        co_return Error(ErrorCode::MalformedMessage,
                        "create_migrated: state snapshot did not decode");
      }
      if (trace::enabled()) {
        uint64_t AdoptCtx = trace::mintCausalId();
        trace::completeCtx(NodeId, 0, "scoopp.factory_adopt", StartNs,
                           Sim.now().nanosecondsCount() - StartNs, AdoptCtx,
                           DispatchCtx);
      }
      co_return serial::encodeValues(Made->first);
    }
    if (Method == "destroy") {
      std::string ObjectName;
      if (!serial::decodeValues(Args, ObjectName))
        co_return Error(ErrorCode::MalformedMessage, "destroy args");
      if (!Runtime.endpoint(NodeId).unpublish(ObjectName))
        co_return Error(ErrorCode::UnknownObject,
                        "no such object: " + ObjectName);
      co_return serial::encodeValues(Unit());
    }
    co_return Error(ErrorCode::UnknownMethod, std::string(Method));
  }

private:
  ScooppRuntime &Runtime;
  int NodeId;
};

} // namespace

ScooppRuntime::ScooppRuntime(vm::Cluster &Cluster, net::Network &Net,
                             ParallelClassRegistry Registry,
                             ScooppConfig Config)
    : Cluster(Cluster), Net(Net), Registry(std::move(Registry)),
      Config(Config), Random(Config.Seed) {
  int Nodes = Cluster.nodeCount();
  NextImplId.assign(static_cast<size_t>(Nodes), 0);
  FailStreak.assign(static_cast<size_t>(Nodes), 0);
  Down.assign(static_cast<size_t>(Nodes), 0);
  SaturatedAtNs.assign(static_cast<size_t>(Nodes), -1);
  Endpoints.reserve(static_cast<size_t>(Nodes));
  Oms.reserve(static_cast<size_t>(Nodes));
  // Boot order matches the paper: "The application entry code creates one
  // instance of the OM on each processing node" and factories are
  // "automatically registered in the boot code of each node".
  for (int I = 0; I < Nodes; ++I) {
    Endpoints.push_back(std::make_unique<RpcEndpoint>(
        Cluster.node(I), Net, remoting::stackProfile(Config.Stack),
        Port, Config.DispatchWorkers));
    if (Config.Retry.enabled())
      Endpoints.back()->setRetryPolicy(Config.Retry);
    if (Config.Admission.enabled())
      Endpoints.back()->setAdmissionPolicy(Config.Admission);
    auto Om = std::make_shared<ObjectManager>(*this, I);
    Oms.push_back(Om);
    Endpoints.back()->publish(OmName, Om);
    Endpoints.back()->publish(FactoryName,
                              std::make_shared<FactoryHandler>(*this, I));
  }
}

ScooppRuntime::~ScooppRuntime() {
  // Coroutine frames parked forever by node crashes hold references into
  // runtime-owned state (an ImplAdapter's ~dtor notifies its OM); destroy
  // them now, while every layer they can reference is still alive, instead
  // of leaving them to ~Simulator after this runtime is gone.
  Cluster.sim().reapDetached();
  // Fold the SCOOPP decision counters into the end-of-run report.
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter("scoopp.local_creations").add(Stats.LocalCreations);
  Reg.counter("scoopp.remote_creations").add(Stats.RemoteCreations);
  Reg.counter("scoopp.local_calls").add(Stats.LocalCalls);
  Reg.counter("scoopp.remote_sync_calls").add(Stats.RemoteSyncCalls);
  Reg.counter("scoopp.remote_async_calls").add(Stats.RemoteAsyncCalls);
  Reg.counter("scoopp.packed_messages").add(Stats.PackedMessages);
  Reg.counter("scoopp.packed_calls").add(Stats.PackedCalls);
}

void ScooppRuntime::noteCallOutcome(int Node, bool Ok) {
  if (Node < 0 || Node >= static_cast<int>(Down.size()))
    return;
  size_t Idx = static_cast<size_t>(Node);
  if (Ok) {
    FailStreak[Idx] = 0;
    // A successful call is the freshest load signal there is: it clears
    // any saturation mark early.
    SaturatedAtNs[Idx] = -1;
    if (Down[Idx]) {
      Down[Idx] = 0;
      metrics::Registry::global().counter("om.node_up").add(1);
      trace::instant(Node, 0, "om.node_up",
                     sim().now().nanosecondsCount());
      PARCS_LOG(Info, "scoopp: node " << Node << " is healthy again");
    }
    return;
  }
  if (Down[Idx])
    return;
  if (++FailStreak[Idx] >= NodeFailureThreshold) {
    Down[Idx] = 1;
    metrics::Registry::global().counter("om.node_down").add(1);
    trace::instant(Node, 0, "om.node_down",
                   sim().now().nanosecondsCount());
    PARCS_LOG(Warn, "scoopp: node " << Node << " marked down after "
                                    << FailStreak[Idx]
                                    << " transport failures");
  }
}

void ScooppRuntime::noteOverloaded(int Node) {
  if (Node < 0 || Node >= static_cast<int>(SaturatedAtNs.size()))
    return;
  // The deterministic load-shed residue the experiments read.
  if (!CallsShed)
    CallsShed = &metrics::Registry::global().counter("om.calls_shed");
  CallsShed->add(1);
  int64_t NowNs = sim().now().nanosecondsCount();
  if (!nodeSaturated(Node)) {
    if (!NodesSaturated)
      NodesSaturated =
          &metrics::Registry::global().counter("om.node_saturated");
    NodesSaturated->add(1);
    trace::instant(Node, 0, "om.node_saturated", NowNs);
    PARCS_LOG(Info, "scoopp: node " << Node
                                    << " saturated (admission refusals)");
  }
  SaturatedAtNs[static_cast<size_t>(Node)] = NowNs;
}

bool ScooppRuntime::nodeSaturated(int Node) const {
  if (Node < 0 || Node >= static_cast<int>(SaturatedAtNs.size()))
    return false;
  int64_t At = SaturatedAtNs[static_cast<size_t>(Node)];
  if (At < 0)
    return false;
  return Cluster.sim().now().nanosecondsCount() - At <=
         SaturationTtl.nanosecondsCount();
}

void ScooppRuntime::noteMigrated(const ParallelRef &From,
                                 const ParallelRef &To) {
  // Collapse chains: anything that already routed to From now routes
  // straight to To, so resolveRoute stays a single lookup no matter how
  // often an object moves.
  for (auto &[Origin, Current] : Routes)
    if (Current == From)
      Current = To;
  Routes[From] = To;
}

const ParallelRef &ScooppRuntime::resolveRoute(const ParallelRef &Ref) const {
  auto It = Routes.find(Ref);
  return It == Routes.end() ? Ref : It->second;
}

RpcEndpoint &ScooppRuntime::endpoint(int Node) {
  assert(Node >= 0 && Node < nodeCount() && "endpoint: bad node id");
  return *Endpoints[static_cast<size_t>(Node)];
}

ObjectManager &ScooppRuntime::om(int Node) {
  assert(Node >= 0 && Node < nodeCount() && "om: bad node id");
  return *Oms[static_cast<size_t>(Node)];
}

ErrorOr<std::pair<std::string, std::shared_ptr<ImplAdapter>>>
ScooppRuntime::instantiateImpl(int Node, const std::string &ClassName) {
  const ParallelClassInfo *Info = Registry.lookup(ClassName);
  if (!Info)
    return Error(ErrorCode::UnknownType,
                 "no parallel class registered as '" + ClassName + "'");
  std::shared_ptr<CallHandler> Inner = Info->MakeImpl(*this, Cluster.node(Node));
  auto Adapter =
      std::make_shared<ImplAdapter>(om(Node), ClassName, std::move(Inner));
  uint64_t Id = NextImplId[static_cast<size_t>(Node)]++;
  std::string Name = "io:" + ClassName + ":" + std::to_string(Id);
  endpoint(Node).publish(Name, Adapter);
  PARCS_LOG(Debug, "scoopp: created " << Name << " on node " << Node);
  return std::make_pair(std::move(Name), std::move(Adapter));
}
