//===- perfbench/src/Probes.cpp - Stacked layer probes -------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One probe per runtime layer.  Each drives the layer's public entry
/// points with the op mix the workload's exact counts describe, with the
/// layers below live and the layers above absent, and times batches of
/// operations inside a span.  A layer's self cost per op is its probe's
/// cost per op minus the self cost of every lower-layer op the probe
/// caused (read from the metrics registry, like the workload's counts):
///
///   sim       bare Simulator: callback/resume events, near/far delays
///   vm        Node::compute work items through a dispatch ThreadPool
///   net       Network::send of workload-sized messages
///   serial    the RPC body + envelope encode/decode of one message
///             (pure host code: nothing beneath it)
///   remoting  two RpcEndpoints and an echo CallHandler
///   core      ScooppRuntime + an echo parallel class through ProxyBase
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Proxy.h"
#include "core/Scoopp.h"
#include "net/Network.h"
#include "remoting/Engine.h"
#include "remoting/Profiles.h"
#include "serial/Envelope.h"
#include "vm/Cluster.h"
#include "vm/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace parcs;
using namespace perfbench;

namespace {

/// Median ns per op over repeated batches (each normalised by a reference
/// run just before it), plus the counts one batch caused per op.  Batches repeat until the probe's share of the budget
/// is spent (at least MinBatches).
struct ProbeRun {
  double NsPerOp = 0;
  Counts PerOp;
};

constexpr int MinBatches = 3;
constexpr int MaxBatches = 15;

ProbeRun measure(SpanRecorder &Spans, const char *Name, double Ops,
                 double BudgetSeconds, const std::function<void()> &Batch) {
  std::vector<double> Ns;
  Counts Last;
  int64_t End = cpuNowNs() + static_cast<int64_t>(BudgetSeconds * 1e9);
  while (static_cast<int>(Ns.size()) < MinBatches ||
         (static_cast<int>(Ns.size()) < MaxBatches && cpuNowNs() < End)) {
    Counts Before = snapshotCounts();
    double Ref = referenceMs();
    int Id = Spans.begin(Name);
    Batch();
    Ns.push_back(normalise(static_cast<double>(Spans.end(Id)), Ref));
    Last = countDelta(snapshotCounts(), Before);
  }
  std::sort(Ns.begin(), Ns.end());
  ProbeRun R;
  R.NsPerOp = Ns[Ns.size() / 2] / Ops;
  for (const auto &[K, V] : Last)
    if (!K.starts_with("gauge:"))
      R.PerOp[K] = V / Ops;
  return R;
}

/// Deterministic share picker: true for a \p Share fraction of calls,
/// spread evenly (Bresenham), so a batch reproduces the workload's mix.
class Mix {
public:
  explicit Mix(double Share) : Share(std::clamp(Share, 0.0, 1.0)) {}
  bool next() {
    Acc += Share;
    if (Acc >= 1.0) {
      Acc -= 1.0;
      return true;
    }
    return false;
  }

private:
  double Share;
  double Acc = 0;
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

//===----------------------------------------------------------------------===//
// sim
//===----------------------------------------------------------------------===//

constexpr sim::SimTime NearDelay = sim::SimTime::microseconds(1);
/// Beyond the calendar window (2^9 ns x 4096 buckets), so the event goes
/// through the overflow heap like the workload's long waits.
constexpr sim::SimTime FarDelay = sim::SimTime::milliseconds(5);

sim::Task<void> resumeChain(sim::Simulator &Sim, int Steps, double FarShare) {
  Mix Far(FarShare);
  for (int I = 0; I < Steps; ++I)
    co_await Sim.delay(Far.next() ? FarDelay : NearDelay);
}

struct CallbackChain {
  sim::Simulator *Sim;
  int *Left;
  Mix *Far;
  void operator()() const {
    if (--*Left > 0)
      Sim->schedule(Far->next() ? FarDelay : NearDelay, *this);
  }
};

//===----------------------------------------------------------------------===//
// vm
//===----------------------------------------------------------------------===//

sim::Task<void> workItem(vm::Node &Host) {
  co_await Host.compute(sim::SimTime::microseconds(20));
}

sim::Task<void> postItems(vm::Node &Host, vm::ThreadPool &Pool, int Items) {
  for (int I = 0; I < Items; ++I) {
    Pool.post([&Host] { return workItem(Host); });
    co_await Host.sim().delay(sim::SimTime::microseconds(15));
  }
}

//===----------------------------------------------------------------------===//
// net
//===----------------------------------------------------------------------===//

constexpr int ProbePort = 7000;

sim::Task<void> drain(sim::Channel<net::Message> &In, int Messages) {
  for (int I = 0; I < Messages; ++I)
    (void)co_await In.recv();
}

sim::Task<void> sendMessages(net::Network &Net, int Messages, size_t Bytes) {
  std::vector<uint8_t> Payload(Bytes, 0x5a);
  sim::SimTime Gap = Net.wireTime(Bytes) + NearDelay;
  for (int I = 0; I < Messages; ++I) {
    Net.send(0, 1, ProbePort, Payload);
    co_await Net.sim().delay(Gap);
  }
}

//===----------------------------------------------------------------------===//
// remoting
//===----------------------------------------------------------------------===//

class EchoHandler : public remoting::CallHandler {
public:
  explicit EchoHandler(vm::Node *Host = nullptr,
                       sim::SimTime Work = sim::SimTime())
      : Host(Host), Work(Work) {}
  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view, const remoting::Bytes &Args) override {
    if (Host && Work > sim::SimTime())
      co_await Host->compute(Work);
    co_return Args;
  }

private:
  vm::Node *Host;
  sim::SimTime Work;
};

const remoting::StackProfile &probeStack() {
  return remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117);
}

sim::Task<void> echoCalls(remoting::RpcEndpoint &Client, int Calls,
                          double OneWayShare, remoting::Bytes Args) {
  Mix OneWay(OneWayShare);
  for (int I = 0; I < Calls; ++I) {
    if (OneWay.next())
      co_await Client.callOneWay(1, ProbePort, "echo", "echo", Args);
    else
      (void)co_await Client.callReliable(1, ProbePort, "echo", "echo", Args);
  }
}

sim::Task<void> burstCall(remoting::RpcEndpoint &Client,
                          const remoting::Bytes &Args, int &Done) {
  (void)co_await Client.call(1, ProbePort, "echo", "echo", Args);
  ++Done;
}

/// Bursts of \p Burst simultaneous calls against a one-slot admission
/// budget: one is admitted, the rest are refused.
sim::Task<void> rejectBursts(remoting::RpcEndpoint &Client, int Bursts,
                             int Burst, remoting::Bytes Args) {
  sim::Simulator &Sim = Client.node().sim();
  for (int B = 0; B < Bursts; ++B) {
    int Done = 0;
    for (int I = 0; I < Burst; ++I)
      Sim.spawn(burstCall(Client, Args, Done));
    while (Done < Burst)
      co_await Sim.delay(sim::SimTime::microseconds(100));
  }
}

/// Arguments whose wire payload matches \p PayloadBytes per message: the
/// RPC header and envelope overhead is measured once and taken off.
remoting::Bytes argsForPayload(double PayloadBytes) {
  serial::OutputArchive Body;
  Body.write(uint64_t(1));
  Body.write(uint8_t(0));
  Body.write(int32_t(0));
  Body.write(int32_t(ProbePort));
  Body.write(std::string("echo"));
  Body.write(std::string("echo"));
  Body.write(uint32_t(0));
  size_t Overhead =
      serial::encodeEnvelope(probeStack().Format, "echo", Body.bytes())
          .size() +
      1;
  size_t Want = PayloadBytes > static_cast<double>(Overhead)
                    ? static_cast<size_t>(PayloadBytes) - Overhead
                    : 0;
  return remoting::Bytes(Want, 0x33);
}

//===----------------------------------------------------------------------===//
// serial
//===----------------------------------------------------------------------===//

/// What the engine's serial layer does for one message: build the call
/// body around the argument bytes, wrap it in the stack's envelope, then
/// decode the envelope and read the body back.
size_t serialRoundTrip(const remoting::Bytes &Args, uint64_t CallId) {
  serial::OutputArchive Body;
  Body.write(CallId);
  Body.write(uint8_t(0));
  Body.write(int32_t(0));
  Body.write(int32_t(ProbePort));
  Body.write(std::string("echo"));
  Body.write(std::string("echo"));
  Body.write(static_cast<uint32_t>(Args.size()));
  Body.writeRaw(Args);
  remoting::Bytes Wire;
  Wire.push_back(0xC1);
  serial::encodeEnvelopeInto(probeStack().Format, "echo", Body.bytes(), Wire);

  ErrorOr<serial::Envelope> Env = serial::decodeEnvelope(
      probeStack().Format, Wire.data() + 1, Wire.size() - 1);
  assert(Env && "probe envelope must decode");
  serial::InputArchive In(Env->Payload);
  uint64_t Id = 0;
  uint8_t Flags = 0;
  int32_t Node = 0, Port = 0;
  std::string Object, Method;
  uint32_t Size = 0;
  bool Ok = In.read(Id) && In.read(Flags) && In.read(Node) && In.read(Port) &&
            In.read(Object) && In.read(Method) && In.read(Size);
  assert(Ok && Id == CallId && Size == Args.size() && "probe body must decode");
  (void)Ok;
  return Wire.size();
}

//===----------------------------------------------------------------------===//
// core
//===----------------------------------------------------------------------===//

scoopp::ParallelClassRegistry echoRegistry() {
  scoopp::ParallelClassRegistry Registry;
  Registry.registerClass(
      {"Echo", [](scoopp::ScooppRuntime &, vm::Node &)
                   -> std::shared_ptr<remoting::CallHandler> {
         return std::make_shared<EchoHandler>();
       }});
  return Registry;
}

/// Creates the echo object on node 1, then calls it from a proxy on node
/// 0 (remote) -- or, when \p Local, from the creating proxy itself.
sim::Task<void> coreCalls(scoopp::ScooppRuntime &Rt, int Calls,
                          double AsyncShare, remoting::Bytes Args,
                          bool Local) {
  scoopp::ProxyBase Owner(Rt, Local ? 0 : 1);
  if (co_await Owner.create("Echo"))
    co_return;
  scoopp::ProxyBase Remote(Rt, 0);
  if (!Local)
    Remote.bind("Echo", Owner.ref());
  scoopp::ProxyBase &Target = Local ? Owner : Remote;
  Mix Async(AsyncShare);
  for (int I = 0; I < Calls; ++I) {
    if (Async.next())
      co_await Target.invokeAsync("echo", Args);
    else
      (void)co_await Target.invokeSync("echo", Args);
  }
  co_await Target.flush();
}

sim::Task<void> coreCreates(scoopp::ScooppRuntime &Rt, int Creates) {
  for (int I = 0; I < Creates; ++I) {
    scoopp::ProxyBase P(Rt, 0);
    (void)co_await P.create("Echo");
  }
}

/// Runs \p Main on a fresh two-node ParC# runtime.
void withRuntime(scoopp::ScooppConfig Config,
                 const std::function<sim::Task<void>(scoopp::ScooppRuntime &)>
                     &Main) {
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  scoopp::ScooppRuntime Rt(Machines, Net, echoRegistry(), Config);
  Machines.sim().spawn(Main(Rt));
  Machines.sim().run();
}

/// Self ns of the lower-layer work \p PerOp records, costed at \p C.
double lowerSelf(const Counts &PerOp, const LayerCosts &C,
                 bool WithRemoting) {
  double Msgs = count(PerOp, "net.messages_delivered");
  double Ns = count(PerOp, "sim.events") * C.ProbeSimEventNs +
              count(PerOp, "pool.items_posted") * C.VmItem.Self +
              Msgs * (C.NetMsg.Self + C.SerialMsg.Self);
  if (WithRemoting) {
    double Rejected = rpcCount(PerOp, "overload_rejected");
    double Calls = rpcCount(PerOp, "calls_issued") +
                   rpcCount(PerOp, "oneway_sent") - Rejected;
    Ns += Calls * C.RemotingCall.Self + Rejected * C.RemotingReject.Self;
  }
  return Ns;
}

} // namespace

LayerCosts perfbench::runProbes(const Counts &Iter, const ProbeShape &Shape,
                                double BudgetSeconds, SpanRecorder &Spans) {
  LayerCosts C;
  const double Each = BudgetSeconds / 10;
  const double Events = count(Iter, "sim.events");
  const double Msgs = count(Iter, "net.messages_delivered");
  const double MeanPayload = ratio(count(Iter, "net.payload_bytes"), Msgs);
  const double Issued = rpcCount(Iter, "calls_issued");
  const double OneWay = rpcCount(Iter, "oneway_sent");
  const double Rejected = rpcCount(Iter, "overload_rejected");
  const double RemoteSync = count(Iter, "scoopp.remote_sync_calls");
  const double RemoteAsync = count(Iter, "scoopp.remote_async_calls");
  const double LocalCalls = count(Iter, "scoopp.local_calls");
  const double LocalCreates = count(Iter, "scoopp.local_creations");
  const double Creates = LocalCreates + count(Iter, "scoopp.remote_creations");

  // sim: the workload's callback/resume split and far-delay share, run
  // twice: with a shallow queue (what the probes above sim see, used to
  // cost their events) and with the workload's peak queue depth (one
  // resume chain per pending event; used to cost the workload's events).
  if (Events > 0) {
    double CallbackShare = ratio(count(Iter, "sim.callback_events"), Events);
    double FarShare = ratio(count(Iter, "sim.overflow_inserts"), Events);
    auto SimProbe = [&](const char *Name, int Chains) {
      const int N = std::max(200'000, 20 * Chains);
      ProbeRun R = measure(Spans, Name, N, Each / 2, [&] {
        sim::Simulator Sim;
        int Callbacks = static_cast<int>(N * CallbackShare);
        int Resumes = N - Callbacks;
        for (int I = 0; I < Chains; ++I)
          Sim.spawn(resumeChain(Sim, Resumes / Chains, FarShare));
        Mix Far(FarShare);
        int Left = Callbacks;
        if (Left > 0)
          Sim.schedule(NearDelay, CallbackChain{&Sim, &Left, &Far});
        Sim.run();
      });
      // Per event the probe actually ran (spawns add a few).
      return ratio(R.NsPerOp, count(R.PerOp, "sim.events"));
    };
    const int ShallowChains = 8;
    int Depth = static_cast<int>(count(Iter, "gauge:sim.peak_queue_depth"));
    C.ProbeSimEventNs = SimProbe("probe.sim.shallow", ShallowChains);
    C.SimEvent.Total = C.SimEvent.Self =
        Depth > ShallowChains
            ? SimProbe("probe.sim.deep", std::min(Depth, 50'000))
            : C.ProbeSimEventNs;
  }

  // vm: dispatch-pool items that each charge node CPU.
  if (count(Iter, "pool.items_posted") > 0) {
    const int N = 20'000;
    ProbeRun R = measure(Spans, "probe.vm", N, Each, [&] {
      vm::Cluster Machines(1, vm::VmKind::MonoVm117);
      vm::ThreadPool Pool(Machines.node(0));
      Machines.sim().spawn(postItems(Machines.node(0), Pool, N));
      Machines.sim().run();
    });
    C.VmItem.Total = R.NsPerOp;
    C.VmItem.Self = R.NsPerOp - lowerSelf(R.PerOp, C, false);
  }

  // net: messages of the workload's mean payload size.
  if (Msgs > 0) {
    const int N = 20'000;
    size_t Bytes = static_cast<size_t>(MeanPayload);
    ProbeRun R = measure(Spans, "probe.net", N, Each, [&] {
      sim::Simulator Sim;
      net::Network Net(Sim, 2);
      Sim.spawn(drain(Net.bind(1, ProbePort), N));
      Sim.spawn(sendMessages(Net, N, Bytes));
      Sim.run();
    });
    C.NetMsg.Total = R.NsPerOp;
    C.NetMsg.Self = R.NsPerOp - lowerSelf(R.PerOp, C, false);
  }

  remoting::Bytes Args = argsForPayload(MeanPayload);

  // serial: one message's body + envelope, both directions.
  if (Msgs > 0) {
    const int N = 20'000;
    size_t Sink = 0;
    ProbeRun R = measure(Spans, "probe.serial", N, Each, [&] {
      for (int I = 0; I < N; ++I)
        Sink += serialRoundTrip(Args, static_cast<uint64_t>(I));
    });
    C.SerialMsg.Total = C.SerialMsg.Self = R.NsPerOp;
    assert(Sink > 0);
    (void)Sink;
  }

  // remoting: echo calls with the workload's two-way/one-way mix.
  if (Issued + OneWay > Rejected) {
    const int N = 4'000;
    double OneWayShare = ratio(OneWay, Issued + OneWay - Rejected);
    ProbeRun R = measure(Spans, "probe.remoting.call", N, Each, [&] {
      vm::Cluster Machines(2, vm::VmKind::MonoVm117);
      net::Network Net(Machines.sim(), 2);
      remoting::RpcEndpoint Client(Machines.node(0), Net, probeStack(),
                                   ProbePort);
      remoting::RpcEndpoint Server(Machines.node(1), Net, probeStack(),
                                   ProbePort);
      Client.setRetryPolicy(Shape.Retry);
      Server.publish("echo", std::make_shared<EchoHandler>());
      Machines.sim().spawn(echoCalls(Client, N, OneWayShare, Args));
      Machines.sim().run();
    });
    C.RemotingCall.Total = R.NsPerOp;
    C.RemotingCall.Self = R.NsPerOp - lowerSelf(R.PerOp, C, false);
  }

  // remoting rejects: bursts sized so the admission budget refuses the
  // workload's share of attempts.
  if (Rejected > 0) {
    double Share = ratio(Rejected, Issued);
    int Burst = std::clamp(static_cast<int>(1.0 / (1.0 - Share) + 0.5), 2, 32);
    const int Bursts = 1'000;
    ProbeRun R = measure(Spans, "probe.remoting.reject", Bursts, Each, [&] {
      vm::Cluster Machines(2, vm::VmKind::MonoVm117);
      net::Network Net(Machines.sim(), 2);
      remoting::RpcEndpoint Client(Machines.node(0), Net, probeStack(),
                                   ProbePort);
      remoting::RpcEndpoint Server(Machines.node(1), Net, probeStack(),
                                   ProbePort, /*DispatchWorkers=*/1);
      remoting::AdmissionPolicy Budget;
      Budget.MaxPending = 1;
      Server.setAdmissionPolicy(Budget);
      Server.publish("echo", std::make_shared<EchoHandler>(
                                 &Machines.node(1),
                                 sim::SimTime::microseconds(500)));
      Machines.sim().spawn(rejectBursts(Client, Bursts, Burst, Args));
      Machines.sim().run();
    });
    double PerBurstRejects = rpcCount(R.PerOp, "overload_rejected");
    double PerBurstAdmitted = rpcCount(R.PerOp, "calls_issued") -
                              PerBurstRejects;
    // Everything but the admitted calls' remoting self time is the
    // rejects' (their lower layers are costed through the counts).
    double SelfPerBurst = R.NsPerOp - lowerSelf(R.PerOp, C, false) -
                          PerBurstAdmitted * C.RemotingCall.Self;
    C.RemotingReject.Self = ratio(SelfPerBurst, PerBurstRejects);
    C.RemotingReject.Total =
        ratio(R.NsPerOp - PerBurstAdmitted * C.RemotingCall.Total,
              PerBurstRejects);
  }

  // core: remote invocations with the workload's sync/async split.
  if (RemoteSync + RemoteAsync > 0) {
    const int N = 4'000;
    double AsyncShare = ratio(RemoteAsync, RemoteSync + RemoteAsync);
    scoopp::ScooppConfig Config;
    Config.Placement = scoopp::PlacementPolicy::LocalOnly;
    Config.Retry = Shape.Retry;
    ProbeRun R = measure(Spans, "probe.core.remote_call", N, Each, [&] {
      withRuntime(Config, [&](scoopp::ScooppRuntime &Rt) {
        return coreCalls(Rt, N, AsyncShare, Args, false);
      });
    });
    C.CoreRemoteCall.Total = R.NsPerOp;
    C.CoreRemoteCall.Self = R.NsPerOp - lowerSelf(R.PerOp, C, true);
  }

  // core: intra-grain calls on an agglomerated object.
  if (LocalCalls > 0) {
    const int N = 40'000;
    remoting::Bytes LocalArgs(Shape.LocalArgBytes, 0x11);
    scoopp::ScooppConfig Config;
    Config.Grain.AgglomerateObjects = true;
    Config.Retry = Shape.Retry;
    ProbeRun R = measure(Spans, "probe.core.local_call", N, Each, [&] {
      withRuntime(Config, [&](scoopp::ScooppRuntime &Rt) {
        return coreCalls(Rt, N, 1.0, LocalArgs, true);
      });
    });
    C.CoreLocalCall.Total = R.NsPerOp;
    C.CoreLocalCall.Self = R.NsPerOp - lowerSelf(R.PerOp, C, true);
  }

  // core: creations the way the workload mostly creates (agglomerated or
  // placed in parallel).
  if (Creates > 0) {
    const int N = 2'000;
    scoopp::ScooppConfig Config;
    Config.Grain.AgglomerateObjects = LocalCreates * 2 > Creates;
    Config.Retry = Shape.Retry;
    ProbeRun R = measure(Spans, "probe.core.create", N, Each, [&] {
      withRuntime(Config, [&](scoopp::ScooppRuntime &Rt) {
        return coreCreates(Rt, N);
      });
    });
    C.CoreCreate.Total = R.NsPerOp;
    C.CoreCreate.Self = R.NsPerOp - lowerSelf(R.PerOp, C, true);
  }
  return C;
}
