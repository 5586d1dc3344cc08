//===- apps/loadgen/LoadGen.cpp -------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "apps/loadgen/LoadGen.h"

#include "LoadWorkerGen.h"
#include "core/ObjectManager.h"
#include "net/Network.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "remoting/Engine.h"
#include "remoting/Profiles.h"
#include "vm/Calibration.h"
#include "vm/Cluster.h"

#include <cmath>
#include <memory>
#include <vector>

using namespace parcs;
using namespace parcs::apps::loadgen;

namespace {

/// The served object: burns a fixed compute cost per call and keeps a
/// running (count, accumulator) pair -- real state, so live migration has
/// something to lose if it is wrong.
class LoadWorkerImpl : public LoadWorkerSkeleton {
public:
  LoadWorkerImpl(vm::Node &Host, sim::SimTime WorkCost)
      : Host(Host), WorkCost(WorkCost) {}

  sim::Task<ErrorOr<int32_t>> work(int32_t Token) override {
    co_await Host.compute(WorkCost);
    ++Handled;
    Acc += Token;
    co_return Token;
  }

  void saveState(serial::OutputArchive &Out) override {
    Out.write(Handled);
    Out.write(Acc);
  }
  bool restoreState(serial::InputArchive &In) override {
    return In.read(Handled) && In.read(Acc);
  }

private:
  vm::Node &Host;
  sim::SimTime WorkCost;
  int64_t Handled = 0;
  int64_t Acc = 0;
};

/// Shared run state the open-loop call tasks report into.  One simulator
/// drives everything cooperatively, so plain counters are safe; every
/// generator keeps its proxies alive until the *global* backlog drains.
struct RunState {
  sim::Simulator &Sim;
  metrics::Histogram Latency{};
  uint64_t Offered = 0;
  uint64_t Completed = 0;
  uint64_t Rejected = 0;
  uint64_t Failed = 0;
  uint64_t Done = 0; ///< Completed + Rejected + Failed (drain condition).
};

sim::Task<void> oneCall(LoadWorkerProxy &Proxy, RunState &S, int32_t Token) {
  sim::SimTime Start = S.Sim.now();
  ErrorOr<int32_t> R = co_await Proxy.work(Token);
  if (R) {
    ++S.Completed;
    S.Latency.record((S.Sim.now() - Start).nanosecondsCount());
  } else if (R.error().code() == ErrorCode::Overloaded) {
    ++S.Rejected;
  } else {
    ++S.Failed;
  }
  ++S.Done;
}

/// One client node's slice of the open loop: proxies bound to the shared
/// worker fleet and its own Poisson arrival stream at OfferedRate /
/// ClientNodes.  Generators never run on serving nodes -- client-side
/// marshalling is paid before the admission check, so co-located
/// generators would add CPU queueing no admission budget can bound (and
/// a *single* client node would bottleneck on its own marshalling CPU,
/// ~120us/message each side, long before the fleet saturates).
sim::Task<void> generatorOn(scoopp::ScooppRuntime &Runtime, int Node,
                            const LoadGenConfig &Cfg, RunState &S,
                            const std::vector<scoopp::ParallelRef> &Fleet) {
  sim::Simulator &Sim = Runtime.sim();
  std::vector<std::unique_ptr<LoadWorkerProxy>> Workers;
  for (const scoopp::ParallelRef &Ref : Fleet) {
    auto Proxy = std::make_unique<LoadWorkerProxy>(Runtime, Node);
    Proxy->bind(LoadWorkerProxy::ClassName, Ref);
    Workers.push_back(std::move(Proxy));
  }

  // Open loop: Poisson arrivals (exponential gaps, -ln(U)/rate) from a
  // per-node seeded stream.  Arrivals never wait for completions -- that
  // is the whole point.
  Rng Arrivals(Cfg.Seed * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(Node) * 0x2545f4914f6cdd1dULL + 1);
  double Rate = Cfg.OfferedRate / Cfg.ClientNodes;
  sim::SimTime End = Sim.now() + Cfg.Duration;
  size_t Next = 0;
  while (Sim.now() < End) {
    double U = 1.0 - Arrivals.nextDouble(); // (0, 1]: log stays finite.
    co_await Sim.delay(sim::SimTime::fromSecondsF(-std::log(U) / Rate));
    if (Sim.now() >= End)
      break;
    ++S.Offered;
    Sim.spawn(oneCall(*Workers[Next % Workers.size()], S,
                      static_cast<int32_t>(S.Offered)));
    ++Next;
  }

  // Hold the proxies until the *global* backlog drains: once Done catches
  // Offered, no spawned call can still reference this frame's workers.
  while (S.Done < S.Offered)
    co_await Sim.delay(sim::SimTime::microseconds(100));
}

/// Pins the worker fleet round-robin onto the serving nodes (the runtime
/// runs LocalOnly placement, so a proxy homed on server node N creates
/// its IO on N), then releases the generators.  The owning proxies must
/// outlive the run, so they live in the caller's frame.
sim::Task<void>
driveRun(scoopp::ScooppRuntime &Runtime, const LoadGenConfig &Cfg,
         RunState &S,
         std::vector<std::unique_ptr<LoadWorkerProxy>> &Owners,
         std::vector<scoopp::ParallelRef> &Fleet) {
  for (int W = 0; W < Cfg.Workers; ++W) {
    auto Proxy = std::make_unique<LoadWorkerProxy>(Runtime, W % Cfg.Nodes);
    Error E = co_await Proxy->create();
    if (E)
      co_return;
    Fleet.push_back(Proxy->ref());
    Owners.push_back(std::move(Proxy));
  }
  for (int C = 0; C < Cfg.ClientNodes; ++C)
    Runtime.sim().spawn(
        generatorOn(Runtime, Cfg.Nodes + C, Cfg, S, Fleet));
}

} // namespace

double parcs::apps::loadgen::saturationRate(const LoadGenConfig &Cfg) {
  // Server-side service demand of one call: request unmarshal + reply
  // marshal (the calibrated fixed per-side stack cost) plus the user
  // method's compute.  The client-side marshalling runs on the dedicated
  // generator nodes and does not consume serving capacity.  Fleet
  // capacity is the pooled server core count over that demand (vm::Node
  // models two cores per node).
  const remoting::StackProfile &P =
      remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117);
  double PerCallS =
      2.0 * P.FixedPerSide.toSecondsF() + Cfg.WorkCost.toSecondsF();
  return PerCallS > 0 ? 2.0 * Cfg.Nodes / PerCallS : 0.0;
}

LoadGenResult parcs::apps::loadgen::runLoadGen(const LoadGenConfig &Cfg) {
  int Total = Cfg.Nodes + Cfg.ClientNodes;
  vm::Cluster Machines(Total, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), Total);

  scoopp::ParallelClassRegistry Registry;
  registerLoadWorkerClass<LoadWorkerImpl>(Registry, Cfg.WorkCost);

  scoopp::ScooppConfig SC;
  SC.Seed = Cfg.Seed;
  // Same retry policy for protected and unprotected runs: the *only*
  // variable in a sweep is the admission budget.  The attempt deadline is
  // far above any queueing delay the sweep can build -- the unprotected
  // baseline must measure unbounded *queueing*, not transport give-ups.
  SC.Retry.MaxAttempts = 3;
  SC.Retry.AttemptTimeout = sim::SimTime::seconds(2);
  // An open-loop client takes one polite retry-after wait and then
  // surfaces the shed: camping on the hint for the default eight rounds
  // would fold multi-millisecond waits into the admitted-latency
  // distribution and hide the rejections the sweep exists to count.
  SC.Retry.MaxOverloadWaits = 1;
  // LocalOnly placement so the setup phase pins each worker exactly on
  // the serving node its creating proxy is homed on.
  SC.Placement = scoopp::PlacementPolicy::LocalOnly;
  if (Cfg.MaxPending > 0)
    SC.Admission.MaxPending = Cfg.MaxPending;
  scoopp::ScooppRuntime Runtime(Machines, Net, std::move(Registry), SC);

  uint64_t DeferredBefore =
      metrics::Registry::global().counter("om.creations_deferred").value();

  RunState S{Machines.sim()};
  LoadGenResult Out;
  std::vector<std::unique_ptr<LoadWorkerProxy>> Owners;
  std::vector<scoopp::ParallelRef> Fleet;
  Machines.sim().spawn(driveRun(Runtime, Cfg, S, Owners, Fleet));
  Machines.sim().run();

  Out.Offered = S.Offered;
  Out.Completed = S.Completed;
  Out.Rejected = S.Rejected;
  Out.Failed = S.Failed;
  Out.P50Us = S.Latency.percentile(50) / 1e3;
  Out.P99Us = S.Latency.percentile(99) / 1e3;
  Out.P999Us = S.Latency.percentile(99.9) / 1e3;
  for (int N = 0; N < Runtime.nodeCount(); ++N) {
    const remoting::EndpointStats &St = Runtime.endpoint(N).stats();
    Out.SloWaits += St.OverloadDeferred;
    Out.ServerShed += St.OverloadRejected + St.OverloadShed;
  }
  Out.CreationsDeferred =
      metrics::Registry::global().counter("om.creations_deferred").value() -
      DeferredBefore;
  return Out;
}
