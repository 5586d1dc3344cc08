//===- tests/ChaosTest.cpp - end-to-end fault tolerance -------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaos scenarios against the seeded fault injector: node crash/restart
/// with retries riding over the outage, partitions that heal, and the
/// flagship acceptance run -- a ray farm that loses a node mid-render and
/// still produces the checksum-correct image, byte-identically across
/// repeated runs.
///
//===----------------------------------------------------------------------===//

#include "apps/ray/Farm.h"
#include "core/ObjectManager.h"
#include "core/Proxy.h"
#include "core/Scoopp.h"
#include "fault/Injector.h"
#include "remoting/Remoting.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::remoting;
using namespace parcs::sim;

namespace {

SimTime ms(int64_t N) { return SimTime::milliseconds(N); }

fault::FaultPlan mustParse(const char *Spec) {
  ErrorOr<fault::FaultPlan> Plan = fault::FaultPlan::parse(Spec);
  if (!Plan) {
    ADD_FAILURE() << "bad fault plan '" << Spec << "': " << Plan.error().str();
    return fault::FaultPlan();
  }
  return *Plan;
}

class EchoHandler : public CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method != "echo")
      co_return Error(ErrorCode::UnknownMethod, std::string(Method));
    ++Calls;
    co_return Bytes(Args);
  }
  int Calls = 0;
};

/// Two nodes, an echo server on node 1, and the injector driving \p Spec.
struct ChaosWorld {
  explicit ChaosWorld(const char *Spec)
      : Machines(2, vm::VmKind::MonoVm117), Net(Machines.sim(), 2),
        Chaos(Machines.sim(), mustParse(Spec)),
        Client(Machines.node(0), Net,
               stackProfile(StackKind::MonoRemotingTcp117), 1050),
        Server(Machines.node(1), Net,
               stackProfile(StackKind::MonoRemotingTcp117), 1050),
        Echo(std::make_shared<EchoHandler>()) {
    Chaos.attach(Machines, Net);
    Server.publish("echo", Echo);
  }

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  fault::Injector Chaos;
  RpcEndpoint Client;
  RpcEndpoint Server;
  std::shared_ptr<EchoHandler> Echo;
};

RetryPolicy quickRetry(int MaxAttempts, SimTime AttemptTimeout) {
  RetryPolicy Retry;
  Retry.MaxAttempts = MaxAttempts;
  Retry.AttemptTimeout = AttemptTimeout;
  return Retry;
}

//===----------------------------------------------------------------------===//
// Crash and restart
//===----------------------------------------------------------------------===//

TEST(ChaosTest, RetriesRideOverCrashAndRestart) {
  // Node 1 dies at 5 ms and reboots at 12 ms; a reliable call issued
  // during the outage keeps retrying into the restarted node.
  ChaosWorld W("crash(1,5ms,12ms)");
  W.Client.setRetryPolicy(quickRetry(8, ms(5)));
  ErrorOr<Bytes> Before(Bytes{}), During(Bytes{});
  struct Proc {
    static Task<void> run(ChaosWorld &W, ErrorOr<Bytes> &Before,
                          ErrorOr<Bytes> &During) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      Before = co_await W.Client.callReliable(1, 1050, "echo", "echo",
                                              Payload);
      co_await W.sim().delay(ms(6)); // Well inside the outage.
      During = co_await W.Client.callReliable(1, 1050, "echo", "echo",
                                              Payload);
    }
  };
  W.sim().spawn(Proc::run(W, Before, During));
  W.sim().run();
  EXPECT_TRUE(Before.hasValue()) << Before.error().str();
  ASSERT_TRUE(During.hasValue()) << During.error().str();
  EXPECT_EQ(W.Echo->Calls, 2);
  EXPECT_EQ(W.Chaos.counters().Crashes, 1u);
  EXPECT_EQ(W.Chaos.counters().Restarts, 1u);
  EXPECT_GE(W.Chaos.counters().NodeDownDropped, 1u);
  EXPECT_GE(W.Client.stats().Retries, 1u);
}

TEST(ChaosTest, CrashWithoutRestartExhaustsRetries) {
  ChaosWorld W("crash(1,1ms)");
  W.Client.setRetryPolicy(quickRetry(3, ms(4)));
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(ChaosWorld &W, ErrorOr<Bytes> &Out) {
      co_await W.sim().delay(ms(2));
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(2));
      Out = co_await W.Client.callReliable(1, 1050, "echo", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.error().code(), ErrorCode::ConnectionFailed);
  EXPECT_EQ(W.Echo->Calls, 0);
  EXPECT_EQ(W.Client.stats().RetriesExhausted, 1u);
  EXPECT_EQ(W.Chaos.counters().Restarts, 0u);
}

/// Echoes after 5 ms of compute -- wide enough to die mid-handler.
class SlowEchoHandler : public CallHandler {
public:
  explicit SlowEchoHandler(vm::Node &Host) : Host(Host) {}
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    ++Started;
    co_await Host.compute(SimTime::milliseconds(5));
    ++Completed;
    co_return Bytes(Args);
  }
  vm::Node &Host;
  int Started = 0;
  int Completed = 0;
};

TEST(ChaosTest, RestartClearsOrphanedDedupEntries) {
  // The first attempt reaches the server and starts its 5 ms of work; the
  // node crashes mid-handler, orphaning the in-progress dedup entry.
  // After the restart the retry of the *same* dedup id must re-execute
  // rather than being suppressed forever by the stale entry.
  ChaosWorld W("crash(1,10ms,20ms)");
  auto Slow = std::make_shared<SlowEchoHandler>(W.Machines.node(1));
  W.Server.publish("slow", Slow);
  W.Client.setRetryPolicy(quickRetry(8, ms(8)));
  ErrorOr<Bytes> Warmup(Bytes{}), Out(Bytes{});
  struct Proc {
    static Task<void> run(ChaosWorld &W, ErrorOr<Bytes> &Warmup,
                          ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(3));
      // Warmup pays connection setup, so the real attempt's request
      // lands promptly.
      Warmup = co_await W.Client.callReliable(1, 1050, "echo", "echo",
                                              Payload);
      co_await W.sim().delay(ms(8) - W.sim().now());
      Out = co_await W.Client.callReliable(1, 1050, "slow", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W, Warmup, Out));
  W.sim().run();
  EXPECT_TRUE(Warmup.hasValue()) << Warmup.error().str();
  ASSERT_TRUE(Out.hasValue()) << Out.error().str();
  EXPECT_GE(W.Client.stats().Retries, 1u);
  EXPECT_GE(Slow->Started, 2) << "the retry must have re-executed";
  EXPECT_EQ(Slow->Completed, Slow->Started - 1)
      << "exactly the crashed execution never finished";
}

//===----------------------------------------------------------------------===//
// Partitions
//===----------------------------------------------------------------------===//

TEST(ChaosTest, PartitionHealsAndCallCompletes) {
  ChaosWorld W("partition(0,1,1ms,20ms)");
  W.Client.setRetryPolicy(quickRetry(6, ms(5)));
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(ChaosWorld &W, ErrorOr<Bytes> &Out) {
      co_await W.sim().delay(ms(2));
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(4));
      Out = co_await W.Client.callReliable(1, 1050, "echo", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_TRUE(Out.hasValue()) << Out.error().str();
  EXPECT_EQ(W.Echo->Calls, 1);
  EXPECT_GE(W.Chaos.counters().PartitionDropped, 1u);
  EXPECT_GT(W.sim().now(), ms(20)) << "success only after the heal";
}

//===----------------------------------------------------------------------===//
// Live migration under faults
//===----------------------------------------------------------------------===//

/// Stateful migratable class for the chaos scenarios: (count, sum) state
/// persisted through saveState/restoreState, plus a CPU-burning "slow"
/// call wide enough to crash a node mid-drain.
class MigChaosImpl : public CallHandler {
public:
  explicit MigChaosImpl(vm::Node &Host) : Host(Host) {}
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method == "add") {
      int32_t V = 0;
      if (!serial::decodeValues(Args, V))
        co_return Error(ErrorCode::MalformedMessage, "add args");
      ++Handled;
      Sum += V;
      co_return serial::encodeValues(Sum);
    }
    if (Method == "slow") {
      int64_t Micros = 0;
      if (!serial::decodeValues(Args, Micros))
        co_return Error(ErrorCode::MalformedMessage, "slow args");
      co_await Host.compute(SimTime::microseconds(Micros));
      ++Handled;
      Sum += 1;
      co_return serial::encodeValues(Sum);
    }
    if (Method == "handled")
      co_return serial::encodeValues(Handled);
    if (Method == "sum")
      co_return serial::encodeValues(Sum);
    co_return Error(ErrorCode::UnknownMethod, std::string(Method));
  }
  void saveState(serial::OutputArchive &Out) override {
    Out.write(Handled);
    Out.write(Sum);
  }
  bool restoreState(serial::InputArchive &In) override {
    return In.read(Handled) && In.read(Sum);
  }

private:
  vm::Node &Host;
  int64_t Handled = 0;
  int64_t Sum = 0;
};

class MigChaosProxy : public scoopp::ProxyBase {
public:
  static constexpr const char *ClassName = "MigChaos";
  using ProxyBase::ProxyBase;
  sim::Task<Error> create() { return ProxyBase::create(ClassName); }
  sim::Task<ErrorOr<int64_t>> add(int32_t V) {
    return invokeSyncTyped<int64_t>("add", V);
  }
  sim::Task<ErrorOr<int64_t>> slow(int64_t Micros) {
    return invokeSyncTyped<int64_t>("slow", Micros);
  }
  sim::Task<ErrorOr<int64_t>> handled() {
    return invokeSyncTyped<int64_t>("handled");
  }
  sim::Task<ErrorOr<int64_t>> sum() { return invokeSyncTyped<int64_t>("sum"); }
};

/// Three SCOOPP nodes under a fault plan, with the MigChaos class
/// registered everywhere and retries enabled (faults without retries just
/// hang the first lost call).
struct MigChaosWorld {
  MigChaosWorld(const char *Spec, scoopp::ScooppConfig Config)
      : Machines(3, vm::VmKind::MonoVm117), Net(Machines.sim(), 3),
        Chaos(Machines.sim(), mustParse(Spec)),
        Runtime(Machines, Net, makeRegistry(), Config) {
    Chaos.attach(Machines, Net);
  }

  static scoopp::ParallelClassRegistry makeRegistry() {
    scoopp::ParallelClassRegistry Registry;
    Registry.registerClass(
        {"MigChaos",
         [](scoopp::ScooppRuntime &,
            vm::Node &Host) -> std::shared_ptr<CallHandler> {
           return std::make_shared<MigChaosImpl>(Host);
         }});
    return Registry;
  }

  static scoopp::ScooppConfig chaosConfig() {
    scoopp::ScooppConfig Config;
    Config.Retry.MaxAttempts = 6;
    Config.Retry.AttemptTimeout = ms(5);
    return Config;
  }

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  fault::Injector Chaos;
  scoopp::ScooppRuntime Runtime;
};

TEST(ChaosTest, CrashOfMigrationSourceMidDrainAborts) {
  // The object is busy with 5 ms of work when the migration starts; its
  // node dies at 2 ms, squarely inside the drain loop.  The migration
  // must abort cleanly -- no half-adopted copy at the destination.
  MigChaosWorld W("crash(1,2ms)", MigChaosWorld::chaosConfig());
  uint64_t AbortedBefore =
      metrics::Registry::global().counter("om.migrations_aborted").value();
  ErrorOr<scoopp::ParallelRef> Moved(scoopp::ParallelRef{});
  bool Ran = false;
  struct Proc {
    // Shared ownership: the slow call outlives run() (it keeps retrying
    // into the dead node until its attempts exhaust).
    static Task<void> busy(std::shared_ptr<MigChaosProxy> P) {
      (void)co_await P->slow(5000); // Dies with the node; that is fine.
    }
    static Task<void> run(MigChaosWorld &W,
                          ErrorOr<scoopp::ParallelRef> &Moved, bool &Ran) {
      auto P = std::make_shared<MigChaosProxy>(W.Runtime, 0);
      Error E = co_await P->create();
      EXPECT_FALSE(E) << E.str();
      // Round robin from node 0 deterministically picks node 1 first.
      EXPECT_EQ(P->ref().Node, 1);
      if (E || P->ref().Node != 1)
        co_return;
      W.sim().spawn(Proc::busy(P));
      // Start the migration only once the slow call is actually executing
      // on the source, so the drain loop is guaranteed to span the crash.
      while (W.Runtime.endpoint(1).inFlight(P->ref().Name) == 0 &&
             W.sim().now() < ms(2))
        co_await W.sim().delay(SimTime::microseconds(50));
      EXPECT_GT(W.Runtime.endpoint(1).inFlight(P->ref().Name), 0u);
      Ran = true;
      Moved = co_await W.Runtime.om(1).migrate(P->ref().Name, 2);
    }
  };
  W.sim().spawn(Proc::run(W, Moved, Ran));
  W.sim().run();
  ASSERT_TRUE(Ran);
  ASSERT_FALSE(Moved.hasValue()) << "migration off a dead node succeeded?";
  EXPECT_EQ(Moved.error().code(), ErrorCode::ConnectionFailed)
      << Moved.error().str();
  EXPECT_EQ(
      metrics::Registry::global().counter("om.migrations_aborted").value(),
      AbortedBefore + 1);
  EXPECT_EQ(W.Runtime.om(2).hostedObjects(), 0)
      << "the destination must not adopt a half-transferred object";
  EXPECT_EQ(W.Chaos.counters().Crashes, 1u);
}

TEST(ChaosTest, PartitionDuringHandoffHealsAndMigrationIsExactlyOnce) {
  // The source<->destination link is cut from 0.5 ms to 10 ms -- across
  // the whole state-handoff window.  callReliable rides the
  // "create_migrated" RPC over the heal under one dedup id, calls issued
  // mid-migration park and replay, and the checksum proves every call
  // executed exactly once.
  MigChaosWorld W("partition(1,2,500us,10ms)", MigChaosWorld::chaosConfig());
  ErrorOr<scoopp::ParallelRef> Moved(scoopp::ParallelRef{});
  int64_t FinalHandled = -1, FinalSum = -1;
  struct Proc {
    static Task<void> lateAdd(MigChaosWorld &W,
                              std::shared_ptr<MigChaosProxy> P, SimTime At) {
      if (At > W.sim().now())
        co_await W.sim().delay(At - W.sim().now());
      auto R = co_await P->add(1);
      EXPECT_TRUE(R.hasValue()) << R.error().str();
    }
    static Task<void> run(MigChaosWorld &W,
                          ErrorOr<scoopp::ParallelRef> &Moved,
                          int64_t &FinalHandled, int64_t &FinalSum) {
      auto P = std::make_shared<MigChaosProxy>(W.Runtime, 0);
      Error E = co_await P->create();
      EXPECT_FALSE(E) << E.str();
      EXPECT_EQ(P->ref().Node, 1);
      if (E || P->ref().Node != 1)
        co_return;
      (void)co_await P->add(5);
      (void)co_await P->add(7);
      // Two adds land mid-migration: parked at the source, replayed at
      // the destination (their own retries ride over the park window).
      W.sim().spawn(Proc::lateAdd(W, P, ms(2)));
      W.sim().spawn(Proc::lateAdd(W, P, ms(3)));
      Moved = co_await W.Runtime.om(1).migrate(P->ref().Name, 2);
      if (!Moved.hasValue())
        co_return;
      // Wait (with a virtual-time watchdog) for both late adds to drain
      // through the moved object.
      while (W.sim().now() < ms(200)) {
        auto H = co_await P->handled();
        EXPECT_TRUE(H.hasValue()) << H.error().str();
        if (!H || *H >= 4)
          break;
        co_await W.sim().delay(ms(2));
      }
      auto H = co_await P->handled();
      auto S = co_await P->sum();
      if (H.hasValue())
        FinalHandled = *H;
      if (S.hasValue())
        FinalSum = *S;
    }
  };
  W.sim().spawn(Proc::run(W, Moved, FinalHandled, FinalSum));
  W.sim().run();
  ASSERT_TRUE(Moved.hasValue()) << Moved.error().str();
  EXPECT_EQ(Moved->Node, 2);
  EXPECT_GT(W.sim().now(), ms(10)) << "handoff must have outlived the cut";
  EXPECT_GE(W.Chaos.counters().PartitionDropped, 1u)
      << "the partition never bit; move the window";
  // Exactly-once: 4 calls, each applied once (5 + 7 + 1 + 1).
  EXPECT_EQ(FinalHandled, 4);
  EXPECT_EQ(FinalSum, 14);
  EXPECT_EQ(W.Runtime.om(2).hostedObjects(), 1)
      << "retried create_migrated must dedup, not clone";
}

//===----------------------------------------------------------------------===//
// Placement under faults
//===----------------------------------------------------------------------===//

TEST(ChaosTest, LeastLoadedSkipsCrashedPeerAndCountsItsFailedProbe) {
  // Node 1 crashes before any probe; it hosts nothing, so alive it would
  // win.  The home node 0 hosts three objects and node 2 none.  Each
  // creation probes node 1 in vain: the probe's retries exhaust, the
  // object lands on node 2, and the failure counts against node 1's
  // health, so the second one marks it down.
  scoopp::ScooppConfig Config = MigChaosWorld::chaosConfig();
  Config.Placement = scoopp::PlacementPolicy::LeastLoaded;
  MigChaosWorld W("crash(1,1us)", Config);
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(W.Runtime.instantiateImpl(0, "MigChaos").hasValue());
  std::vector<int> Placed;
  std::vector<int> Node1Healthy;
  struct Proc {
    static Task<void> run(MigChaosWorld &W, std::vector<int> &Placed,
                          std::vector<int> &Node1Healthy) {
      for (int I = 0; I < 2; ++I) {
        MigChaosProxy P(W.Runtime, 0);
        Error E = co_await P.create();
        EXPECT_FALSE(E) << E.str();
        Placed.push_back(P.ref().Node);
        Node1Healthy.push_back(W.Runtime.nodeHealthy(1));
      }
    }
  };
  W.sim().spawn(Proc::run(W, Placed, Node1Healthy));
  W.sim().run();
  EXPECT_EQ(Placed, (std::vector<int>{2, 2}));
  EXPECT_EQ(Node1Healthy, (std::vector<int>{1, 0}))
      << "one failed probe per creation; two mark node 1 down";
  EXPECT_EQ(W.Chaos.counters().Crashes, 1u);
}

//===----------------------------------------------------------------------===//
// The chaos ray farm (flagship acceptance scenario)
//===----------------------------------------------------------------------===//

std::shared_ptr<const apps::ray::RayJob> chaosJob() {
  auto Job = std::make_shared<apps::ray::RayJob>();
  Job->SceneData = apps::ray::Scene::javaGrande(2);
  Job->Width = 60;
  Job->Height = 40;
  Job->LinesPerTask = 5;
  // ~5 s of virtual sequential work, so the crash below lands mid-render.
  Job->NsPerOp = apps::ray::calibrateNsPerOp(Job->SceneData, Job->Width,
                                             Job->Height, /*Target=*/5.0);
  return Job;
}

/// Node 2 (of 3) dies mid-render and reboots, under 1% loss and 0.5%
/// corruption.
constexpr const char *ChaosFarmPlan =
    "seed(42);crash(2,300ms,600ms);loss(0.01);corrupt(0.005)";

apps::ray::FarmResult runChaosFarm(
    const std::shared_ptr<const apps::ray::RayJob> &Job) {
  apps::ray::FarmConfig Config;
  Config.Processors = 6; // 3 dual-core nodes, so "node 2" exists.
  Config.Faults = mustParse(ChaosFarmPlan);
  return apps::ray::runScooppRayFarm(Job, Config);
}

TEST(ChaosTest, ChaosFarmRendersChecksumCorrectImage) {
  auto Job = chaosJob();
  apps::ray::SequentialResult Seq =
      apps::ray::sequentialRender(*Job, vm::VmKind::SunJvm142);
  apps::ray::FarmResult Farm = runChaosFarm(Job);
  EXPECT_TRUE(Farm.Complete) << "rows lost to the crash were not recovered";
  EXPECT_EQ(Farm.Checksum, Seq.Checksum)
      << "faults may cost time, never pixels";
  EXPECT_EQ(Farm.PixelBytes,
            static_cast<uint64_t>(Job->Width) * Job->Height * 3);
  EXPECT_GT(Farm.Elapsed, SimTime()) << "the simulation must have drained";
}

TEST(ChaosTest, ChaosFarmIsByteIdenticallyReproducible) {
  auto Job = chaosJob();
  metrics::Registry &Reg = metrics::Registry::global();

  auto tracedRun = [&] {
    Reg.reset();
    trace::reset();
    trace::setEnabled(true);
    apps::ray::FarmResult Farm = runChaosFarm(Job);
    trace::setEnabled(false);
    std::string Trace = trace::exportJson();
    trace::reset();
    return std::make_tuple(Farm, Reg.textReport(), std::move(Trace));
  };

  auto [FarmA, MetricsA, TraceA] = tracedRun();
  auto [FarmB, MetricsB, TraceB] = tracedRun();
  Reg.reset();

  EXPECT_EQ(FarmA.Elapsed, FarmB.Elapsed);
  EXPECT_EQ(FarmA.Checksum, FarmB.Checksum);
  EXPECT_EQ(FarmA.RowsRecovered, FarmB.RowsRecovered);
  EXPECT_EQ(MetricsA, MetricsB) << "metrics must be byte-identical";
  EXPECT_EQ(TraceA, TraceB) << "trace exports must be byte-identical";
}

TEST(ChaosTest, FaultFreeFarmReportsNoRecovery) {
  auto Job = chaosJob();
  apps::ray::FarmConfig Config;
  Config.Processors = 4;
  apps::ray::FarmResult Farm = apps::ray::runScooppRayFarm(Job, Config);
  EXPECT_TRUE(Farm.Complete);
  EXPECT_EQ(Farm.RowsRecovered, 0);
  apps::ray::SequentialResult Seq =
      apps::ray::sequentialRender(*Job, vm::VmKind::SunJvm142);
  EXPECT_EQ(Farm.Checksum, Seq.Checksum);
}

} // namespace
