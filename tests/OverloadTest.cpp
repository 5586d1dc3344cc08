//===- tests/OverloadTest.cpp - admission, backpressure, migration --------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The overload-resilience contract: bounded per-node admission with
/// deterministic retry-after hints, callReliable honouring those hints
/// without burning transport attempts, saturation-aware placement, live
/// object migration (state carried, callers rerouted, parked calls
/// replayed exactly once), the SLO-driven rebalancer, and the open-loop
/// traffic generator that exercises all of it.
///
//===----------------------------------------------------------------------===//

#include "apps/loadgen/LoadGen.h"
#include "core/ImplAdapter.h"
#include "core/ObjectManager.h"
#include "core/Proxy.h"
#include "core/Rebalancer.h"
#include "core/Scoopp.h"
#include "net/Network.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "telemetry/Telemetry.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

using namespace parcs;
using namespace parcs::scoopp;
using namespace parcs::sim;

namespace {

SimTime us(int64_t N) { return SimTime::microseconds(N); }
SimTime ms(int64_t N) { return SimTime::milliseconds(N); }

uint64_t counterValue(const char *Name) {
  return metrics::Registry::global().counter(Name).value();
}

//===----------------------------------------------------------------------===//
// Raw-endpoint admission control
//===----------------------------------------------------------------------===//

/// Holds each call for a configurable compute time -- wide enough to pile
/// up a backlog against a small admission budget.
class SlowHandler : public remoting::CallHandler {
public:
  SlowHandler(vm::Node &Host, SimTime Hold) : Host(Host), Hold(Hold) {}
  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view, const remoting::Bytes &Args) override {
    ++Started;
    co_await Host.compute(Hold);
    ++Completed;
    co_return remoting::Bytes(Args);
  }
  vm::Node &Host;
  SimTime Hold;
  int Started = 0;
  int Completed = 0;
};

/// Two raw endpoints and a slow server under an admission budget.
struct AdmissionWorld {
  AdmissionWorld(size_t MaxPending, SimTime Hold)
      : Machines(2, vm::VmKind::MonoVm117), Net(Machines.sim(), 2),
        Client(Machines.node(0), Net,
               remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117),
               1060),
        Server(Machines.node(1), Net,
               remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117),
               1060),
        Slow(std::make_shared<SlowHandler>(Machines.node(1), Hold)) {
    remoting::AdmissionPolicy Admission;
    Admission.MaxPending = MaxPending;
    Server.setAdmissionPolicy(Admission);
    Server.publish("slow", Slow);
  }

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  remoting::RpcEndpoint Client;
  remoting::RpcEndpoint Server;
  std::shared_ptr<SlowHandler> Slow;
};

TEST(AdmissionTest, RejectsPastBudgetWithRetryAfterHint) {
  // Budget 2, four near-simultaneous calls holding the server 5 ms each:
  // two admitted, two refused with a parseable retry-after hint.
  AdmissionWorld W(2, ms(5));
  std::vector<ErrorOr<remoting::Bytes>> Out(4, ErrorOr<remoting::Bytes>(
                                                   remoting::Bytes{}));
  struct Proc {
    static Task<void> one(AdmissionWorld &W, ErrorOr<remoting::Bytes> &Slot,
                          int I) {
      co_await W.sim().delay(us(10 * I)); // Staggered, deterministic.
      Slot = co_await W.Client.callReliable(
          1, 1060, "slow", "hold", serial::encodeValues(int32_t(I)));
    }
  };
  for (int I = 0; I < 4; ++I)
    W.sim().spawn(Proc::one(W, Out[size_t(I)], I));
  W.sim().run();

  int Ok = 0, Rejected = 0;
  int64_t HintNs = 0;
  for (const auto &R : Out) {
    if (R.hasValue()) {
      ++Ok;
      continue;
    }
    ASSERT_EQ(R.error().code(), ErrorCode::Overloaded) << R.error().str();
    ++Rejected;
    // The hint rides in the error text: "... retry-after=<N>ns".
    std::string Msg = R.error().message();
    size_t Pos = Msg.find("retry-after=");
    ASSERT_NE(Pos, std::string::npos) << Msg;
    HintNs = std::strtoll(Msg.c_str() + Pos + 12, nullptr, 10);
  }
  EXPECT_EQ(Ok, 2);
  EXPECT_EQ(Rejected, 2);
  EXPECT_EQ(W.Server.stats().OverloadRejected, 2u);
  EXPECT_EQ(W.Slow->Started, 2);
  // Deterministic, non-trivial hint: at least the policy's base (1 ms).
  EXPECT_GE(HintNs, 1'000'000);
}

TEST(AdmissionTest, CallReliableWaitsOutHintWithoutBurningAttempts) {
  // Budget 1: a 5 ms occupier is in flight, then a reliable call arrives.
  // It must be refused, wait the server's hint, and succeed on a later
  // round -- without consuming any transport retry attempt.
  AdmissionWorld W(1, ms(5));
  remoting::RetryPolicy Retry;
  Retry.MaxAttempts = 3;
  Retry.AttemptTimeout = ms(50);
  W.Client.setRetryPolicy(Retry);

  ErrorOr<remoting::Bytes> First(remoting::Bytes{}), Second(remoting::Bytes{});
  struct Proc {
    static Task<void> occupier(AdmissionWorld &W,
                               ErrorOr<remoting::Bytes> &Out) {
      Out = co_await W.Client.callReliable(1, 1060, "slow", "hold",
                                           serial::encodeValues(int32_t(1)));
    }
    static Task<void> waiter(AdmissionWorld &W,
                             ErrorOr<remoting::Bytes> &Out) {
      co_await W.sim().delay(ms(1)); // Occupier is executing by now.
      Out = co_await W.Client.callReliable(1, 1060, "slow", "hold",
                                           serial::encodeValues(int32_t(2)));
    }
  };
  W.sim().spawn(Proc::occupier(W, First));
  W.sim().spawn(Proc::waiter(W, Second));
  W.sim().run();

  EXPECT_TRUE(First.hasValue()) << First.error().str();
  EXPECT_TRUE(Second.hasValue()) << Second.error().str();
  EXPECT_EQ(W.Slow->Completed, 2);
  EXPECT_GE(W.Client.stats().OverloadDeferred, 1u);
  EXPECT_EQ(W.Client.stats().Retries, 0u)
      << "overload waits must not burn transport attempts";
  EXPECT_EQ(W.Client.stats().OverloadExhausted, 0u);
}

TEST(AdmissionTest, CallReliableResendsOneHintAfterEachRefusal) {
  // Budget 1, held 5 ms by an occupier: a reliable call arriving meanwhile
  // is one past the budget, so it is refused with hint H = RetryAfterBase
  // (1 ms) each time.  Its next attempt must go out exactly H after the
  // refusal reaches callReliable -- not after the 2 ms backoff, and not
  // at once.
  constexpr int64_t HintNs =
      remoting::RpcEndpoint::RetryAfterBase.nanosecondsCount();
  static_assert(HintNs != remoting::RpcEndpoint::BaseBackoff.nanosecondsCount(),
                "the hint must be told apart from the backoff");
  trace::reset();
  trace::setEnabled(true);
  {
    AdmissionWorld W(1, ms(5));
    remoting::AdmissionPolicy Admission;
    Admission.MaxPending = 1;
    W.Server.setAdmissionPolicy(Admission);
    remoting::RetryPolicy Retry;
    Retry.MaxAttempts = 3;
    Retry.AttemptTimeout = ms(50);
    W.Client.setRetryPolicy(Retry);

    ErrorOr<remoting::Bytes> First(remoting::Bytes{}),
        Second(remoting::Bytes{});
    struct Proc {
      static Task<void> call(AdmissionWorld &W, SimTime After,
                             ErrorOr<remoting::Bytes> &Out) {
        co_await W.sim().delay(After);
        Out = co_await W.Client.callReliable(
            1, 1060, "slow", "hold", serial::encodeValues(int32_t(1)));
      }
    };
    W.sim().spawn(Proc::call(W, SimTime(), First));
    W.sim().spawn(Proc::call(W, ms(1), Second));
    W.sim().run();
    EXPECT_TRUE(First.hasValue()) << First.error().str();
    EXPECT_TRUE(Second.hasValue()) << Second.error().str();
    EXPECT_GE(W.Client.stats().OverloadDeferred, 2u);
  }
  trace::setEnabled(false);
  json::Value Root;
  ASSERT_TRUE(json::parse(trace::exportJson(), Root));
  trace::reset();

  // Refusals reach callReliable at the rpc.overload_wait instants; every
  // attempt opens an rpc.call span as it is issued.
  std::vector<int64_t> Waits, Issues;
  const json::Value *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  for (const json::Value &E : Events->Arr) {
    int64_t Ns = std::llround(E.num("ts") * 1000);
    if (E.str("name") == "rpc.overload_wait")
      Waits.push_back(Ns);
    else if (E.str("name") == "rpc.call" && E.str("ph") == "b")
      Issues.push_back(Ns);
  }
  ASSERT_GE(Waits.size(), 2u);
  for (int64_t WaitNs : Waits) {
    SCOPED_TRACE(WaitNs);
    auto Next = std::upper_bound(Issues.begin(), Issues.end(), WaitNs);
    ASSERT_NE(Next, Issues.end());
    EXPECT_EQ(*Next - WaitNs, HintNs);
  }
}

TEST(AdmissionTest, PersistentOverloadExhaustsIntoDistinctError) {
  // The occupier holds the only admission slot for 80 ms; the waiter is
  // allowed two polite waits, then must give up with ErrorCode::Overloaded
  // (not a transport error -- the server answered every time).
  AdmissionWorld W(1, ms(80));
  remoting::RetryPolicy Retry;
  Retry.MaxAttempts = 3;
  Retry.AttemptTimeout = ms(200);
  Retry.MaxOverloadWaits = 2;
  W.Client.setRetryPolicy(Retry);

  ErrorOr<remoting::Bytes> First(remoting::Bytes{}), Second(remoting::Bytes{});
  struct Proc {
    static Task<void> occupier(AdmissionWorld &W,
                               ErrorOr<remoting::Bytes> &Out) {
      Out = co_await W.Client.callReliable(1, 1060, "slow", "hold",
                                           serial::encodeValues(int32_t(1)));
    }
    static Task<void> waiter(AdmissionWorld &W,
                             ErrorOr<remoting::Bytes> &Out) {
      co_await W.sim().delay(ms(1));
      Out = co_await W.Client.callReliable(1, 1060, "slow", "hold",
                                           serial::encodeValues(int32_t(2)));
    }
  };
  W.sim().spawn(Proc::occupier(W, First));
  W.sim().spawn(Proc::waiter(W, Second));
  W.sim().run();

  EXPECT_TRUE(First.hasValue()) << First.error().str();
  ASSERT_FALSE(Second.hasValue());
  EXPECT_EQ(Second.error().code(), ErrorCode::Overloaded)
      << Second.error().str();
  EXPECT_EQ(W.Client.stats().OverloadDeferred, 2u);
  EXPECT_EQ(W.Client.stats().OverloadExhausted, 1u);
  EXPECT_EQ(W.Client.stats().RetriesExhausted, 0u)
      << "exhaustion must be reported as overload, not transport failure";
  EXPECT_EQ(W.Slow->Started, 1);
}

//===----------------------------------------------------------------------===//
// SCOOPP world with a migratable, stateful class
//===----------------------------------------------------------------------===//

/// A parallel class whose state survives migration: running (count, sum)
/// pair, persisted through saveState/restoreState.  "slow" burns CPU so
/// tests can hold the object busy across a migration window.
class MigCounterImpl : public remoting::CallHandler {
public:
  explicit MigCounterImpl(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view Method, const remoting::Bytes &Args) override {
    if (Method == "add") {
      int32_t V = 0;
      if (!serial::decodeValues(Args, V))
        co_return Error(ErrorCode::MalformedMessage, "add args");
      co_await Host.compute(us(2));
      ++Handled;
      Sum += V;
      co_return serial::encodeValues(Sum);
    }
    if (Method == "slow") {
      int64_t Micros = 0;
      if (!serial::decodeValues(Args, Micros))
        co_return Error(ErrorCode::MalformedMessage, "slow args");
      co_await Host.compute(us(Micros));
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

class MigCounterProxy : public ProxyBase {
public:
  static constexpr const char *ClassName = "MigCounter";
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

ParallelClassRegistry migRegistry() {
  ParallelClassRegistry Registry;
  Registry.registerClass(
      {"MigCounter",
       [](ScooppRuntime &, vm::Node &Host) -> std::shared_ptr<CallHandler> {
         return std::make_shared<MigCounterImpl>(Host);
       }});
  return Registry;
}

struct MigWorld {
  explicit MigWorld(ScooppConfig Config = ScooppConfig(), int Nodes = 4)
      : Machines(Nodes, vm::VmKind::MonoVm117), Net(Machines.sim(), Nodes),
        Runtime(Machines, Net, migRegistry(), Config) {}

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  ScooppRuntime Runtime;
};

ScooppConfig retryingConfig() {
  ScooppConfig Config;
  Config.Retry.MaxAttempts = 4;
  Config.Retry.AttemptTimeout = ms(10);
  return Config;
}

//===----------------------------------------------------------------------===//
// Backpressure-aware placement
//===----------------------------------------------------------------------===//

TEST(BackpressureTest, SaturatedNodeSkippedUntilTtlExpires) {
  MigWorld W;
  uint64_t DeferredBefore = counterValue("om.creations_deferred");
  struct Proc {
    static Task<void> run(MigWorld &W) {
      // Mark node 1 saturated, then create 3 objects from node 0: round
      // robin would give one to node 1, but saturation steers it away.
      W.Runtime.noteOverloaded(1);
      EXPECT_TRUE(W.Runtime.nodeSaturated(1));
      for (int I = 0; I < 3; ++I) {
        MigCounterProxy P(W.Runtime, 0);
        Error E = co_await P.create();
        EXPECT_FALSE(E) << E.str();
        EXPECT_NE(P.ref().Node, 1) << "placement ignored saturation";
      }
      // Past the TTL the node is a candidate again.
      co_await W.sim().delay(scoopp::ScooppRuntime::SaturationTtl + ms(1));
      EXPECT_FALSE(W.Runtime.nodeSaturated(1));
      for (int I = 0; I < 4; ++I) {
        MigCounterProxy P(W.Runtime, 0);
        (void)co_await P.create();
      }
      EXPECT_GT(W.Runtime.om(1).hostedObjects(), 0)
          << "saturation must age out";
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_GT(counterValue("om.creations_deferred"), DeferredBefore);
}

TEST(BackpressureTest, AllSaturatedDegradesFailStaticToLocal) {
  MigWorld W;
  struct Proc {
    static Task<void> run(MigWorld &W) {
      for (int N = 1; N < 4; ++N)
        W.Runtime.noteOverloaded(N);
      MigCounterProxy P(W.Runtime, 0);
      Error E = co_await P.create();
      EXPECT_FALSE(E) << E.str();
      // Fail-static: our own node is always usable; work degrades to
      // local placement instead of failing or feeding a refusing node.
      EXPECT_EQ(P.ref().Node, 0);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

//===----------------------------------------------------------------------===//
// Live object migration
//===----------------------------------------------------------------------===//

TEST(MigrationTest, MovesStateAndReroutesExistingProxies) {
  MigWorld W(retryingConfig());
  uint64_t MigrationsBefore = counterValue("om.migrations");
  struct Proc {
    static Task<void> run(MigWorld &W) {
      MigCounterProxy P(W.Runtime, 0);
      Error E = co_await P.create();
      EXPECT_FALSE(E) << E.str();
      if (E)
        co_return;
      int Src = P.ref().Node;
      EXPECT_NE(Src, 0) << "round robin places remotely";
      (void)co_await P.add(5);
      (void)co_await P.add(7);

      int Dst = (Src + 1) % 4 == 0 ? (Src + 2) % 4 : (Src + 1) % 4;
      ErrorOr<ParallelRef> Moved =
          co_await W.Runtime.om(Src).migrate(P.ref().Name, Dst);
      EXPECT_TRUE(Moved.hasValue()) << Moved.error().str();
      if (!Moved)
        co_return;
      EXPECT_EQ(Moved->Node, Dst);

      // The old proxy keeps working and absorbs the new route.
      auto Handled = co_await P.handled();
      auto Sum = co_await P.sum();
      EXPECT_TRUE(Handled.hasValue() && Sum.hasValue());
      if (!Handled || !Sum)
        co_return;
      EXPECT_EQ(*Handled, 2) << "calls lost or duplicated in the move";
      EXPECT_EQ(*Sum, 12) << "state not carried";
      EXPECT_EQ(P.ref().Node, Dst) << "route not absorbed into the proxy";

      // A proxy still holding the stale ref also resolves to the new home.
      MigCounterProxy Stale(W.Runtime, 0);
      Stale.bind(MigCounterProxy::ClassName, ParallelRef{Src, Moved->Name});
      auto Again = co_await Stale.sum();
      EXPECT_TRUE(Again.hasValue()) << Again.error().str();
      if (Again) {
        EXPECT_EQ(*Again, 12);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_EQ(counterValue("om.migrations"), MigrationsBefore + 1);
}

constexpr int ReplayCalls = 20;

TEST(MigrationTest, ParkedCallsReplayExactlyOnceUnderTraffic) {
  MigWorld W(retryingConfig());
  struct Proc {
    static Task<void> caller(MigWorld &W, MigCounterProxy &P, int &Failed) {
      for (int I = 0; I < ReplayCalls; ++I) {
        auto R = co_await P.slow(200); // 200us of served work per call.
        if (!R.hasValue())
          ++Failed;
        co_await W.sim().delay(us(100));
      }
    }
    static Task<void> run(MigWorld &W, int &Failed) {
      MigCounterProxy P(W.Runtime, 0);
      Error E = co_await P.create();
      EXPECT_FALSE(E) << E.str();
      if (E)
        co_return;
      int Src = P.ref().Node;
      W.sim().spawn(Proc::caller(W, P, Failed));
      co_await W.sim().delay(ms(1)); // Mid-stream: calls are in flight.
      ErrorOr<ParallelRef> Moved =
          co_await W.Runtime.om(Src).migrate(P.ref().Name, 0);
      EXPECT_TRUE(Moved.hasValue()) << Moved.error().str();
      if (!Moved)
        co_return;
      // Wait for the caller loop to push all 20 calls through the
      // migrated object, then checksum: each slow() adds exactly 1.
      while (true) {
        auto H = co_await P.handled();
        EXPECT_TRUE(H.hasValue());
        if (!H || *H >= ReplayCalls)
          break;
        co_await W.sim().delay(ms(1));
      }
      auto Handled = co_await P.handled();
      auto Sum = co_await P.sum();
      EXPECT_TRUE(Handled.hasValue() && Sum.hasValue());
      if (!Handled || !Sum)
        co_return;
      EXPECT_EQ(*Handled, ReplayCalls) << "lost or duplicated calls";
      EXPECT_EQ(*Sum, ReplayCalls) << "each slow() adds exactly 1";
    }
  };
  int Failed = 0;
  W.sim().spawn(Proc::run(W, Failed));
  W.sim().run();
  EXPECT_EQ(Failed, 0) << "migration must be invisible to callers";
  // The move actually crossed an active window: calls were parked at the
  // source and/or forwarded off its tombstone.
  uint64_t Parked = 0, Forwarded = 0;
  for (int N = 0; N < 4; ++N) {
    Parked += W.Runtime.endpoint(N).stats().CallsParked;
    Forwarded += W.Runtime.endpoint(N).stats().CallsForwarded;
  }
  EXPECT_GE(Parked + Forwarded, 1u)
      << "migration window never intersected live traffic; widen the test";
}

TEST(MigrationTest, RejectsBadArguments) {
  MigWorld W(retryingConfig());
  struct Proc {
    static Task<void> run(MigWorld &W) {
      MigCounterProxy P(W.Runtime, 0);
      Error E = co_await P.create();
      EXPECT_FALSE(E) << E.str();
      if (E)
        co_return;
      int Src = P.ref().Node;
      auto NoSuch = co_await W.Runtime.om(Src).migrate("io:Nope:99", 0);
      EXPECT_FALSE(NoSuch.hasValue());
      if (!NoSuch) {
        EXPECT_EQ(NoSuch.error().code(), ErrorCode::UnknownObject);
      }
      auto SelfMove = co_await W.Runtime.om(Src).migrate(P.ref().Name, Src);
      EXPECT_FALSE(SelfMove.hasValue());
      if (!SelfMove) {
        EXPECT_EQ(SelfMove.error().code(), ErrorCode::InvalidArgument);
      }
      auto BadNode = co_await W.Runtime.om(Src).migrate(P.ref().Name, 17);
      EXPECT_FALSE(BadNode.hasValue());
      if (!BadNode) {
        EXPECT_EQ(BadNode.error().code(), ErrorCode::InvalidArgument);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(MigrationTest, RepeatedRunsAreByteIdentical) {
  // The migration path is part of the deterministic story: same seed,
  // same virtual timeline, byte-identical trace and metrics exports.
  auto TracedRun = [] {
    metrics::Registry::global().reset();
    trace::reset();
    trace::setEnabled(true);
    int64_t FinalSum = -1;
    {
      MigWorld W(retryingConfig());
      struct Proc {
        static Task<void> run(MigWorld &W, int64_t &FinalSum) {
          MigCounterProxy P(W.Runtime, 0);
          Error E = co_await P.create();
          EXPECT_FALSE(E) << E.str();
          if (E)
            co_return;
          int Src = P.ref().Node;
          (void)co_await P.add(3);
          auto Moved = co_await W.Runtime.om(Src).migrate(P.ref().Name, 0);
          EXPECT_TRUE(Moved.hasValue()) << Moved.error().str();
          auto Sum = co_await P.sum();
          EXPECT_TRUE(Sum.hasValue());
          if (Sum)
            FinalSum = *Sum;
        }
      };
      W.sim().spawn(Proc::run(W, FinalSum));
      W.sim().run();
    } // Teardown folds endpoint stats into the registry.
    trace::setEnabled(false);
    std::string Trace = trace::exportJson();
    trace::reset();
    std::string Metrics = metrics::Registry::global().textReport();
    metrics::Registry::global().reset();
    return std::make_tuple(FinalSum, std::move(Metrics), std::move(Trace));
  };
  auto [SumA, MetricsA, TraceA] = TracedRun();
  auto [SumB, MetricsB, TraceB] = TracedRun();
  EXPECT_EQ(SumA, 3);
  EXPECT_EQ(SumA, SumB);
  EXPECT_EQ(MetricsA, MetricsB) << "migration metrics must replay exactly";
  EXPECT_EQ(TraceA, TraceB) << "migration traces must replay exactly";
  EXPECT_NE(TraceA.find("om.migrate.begin"), std::string::npos);
  EXPECT_NE(TraceA.find("om.migrate.done"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// SLO-driven rebalancer
//===----------------------------------------------------------------------===//

TEST(RebalancerTest, SloBreachTriggersMigrationOffHottestNode) {
  vm::Cluster Machines(4, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 4);
  telemetry::TelemetrySpec Spec;
  Spec.WindowNs = 1000;
  telemetry::SloSpec Slo;
  ASSERT_TRUE(telemetry::parseSloSpec(
      "slo(op.latency, p99 < 500ns, window=2us)", Slo));
  Spec.Slos.push_back(Slo);
  telemetry::Plane Plane(Net, Spec);

  ScooppConfig Config = retryingConfig();
  Config.Placement = PlacementPolicy::LocalOnly;
  ScooppRuntime Runtime(Machines, Net, migRegistry(), Config);

  SloRebalancer Rebalancer(Runtime, Plane, /*MaxMigrations=*/1);

  struct Proc {
    // Pile three objects onto node 1 (LocalOnly placement pins them),
    // then breach the SLO and give the rebalancer room to act.
    static Task<void> run(ScooppRuntime &Runtime, Simulator &Sim) {
      std::vector<std::unique_ptr<MigCounterProxy>> Keep;
      for (int I = 0; I < 3; ++I) {
        auto P = std::make_unique<MigCounterProxy>(Runtime, 1);
        Error E = co_await P->create();
        EXPECT_FALSE(E) << E.str();
        EXPECT_EQ(P->ref().Node, 1);
        Keep.push_back(std::move(P));
      }
      // Every node must report: the collector's frontier is the *minimum*
      // heartbeat over all nodes, so a silent node would pin it at zero
      // and no window would ever finalize live (edges found by the
      // teardown pass do not reach the rebalancer).
      for (int T = 0; T < 10; ++T) {
        co_await Sim.delay(SimTime::microseconds(1));
        int64_t Now = Sim.now().nanosecondsCount();
        for (int N = 0; N < 4; ++N)
          telemetry::record(N, "op.latency", Now, N == 1 ? 5000 : 100);
      }
      // Idle long enough for the spawned migration to finish.
      co_await Sim.delay(SimTime::milliseconds(5));
    }
  };
  Machines.sim().spawn(Proc::run(Runtime, Machines.sim()));
  Machines.sim().run();

  EXPECT_GE(Rebalancer.breaches(), 1u);
  EXPECT_EQ(Rebalancer.triggered(), 1u);
  EXPECT_EQ(Rebalancer.succeeded(), 1u) << "migration failed";
  // One object left the hot node for the coldest (node 0, lowest id).
  EXPECT_EQ(Runtime.om(1).hostedObjects(), 2);
  EXPECT_EQ(Runtime.om(0).hostedObjects(), 1);
}

//===----------------------------------------------------------------------===//
// Open-loop generator (the app itself)
//===----------------------------------------------------------------------===//

apps::loadgen::LoadGenConfig smallLoad() {
  apps::loadgen::LoadGenConfig Cfg;
  Cfg.Nodes = 2;
  Cfg.ClientNodes = 1;
  Cfg.Workers = 2;
  Cfg.WorkCost = ms(1);
  Cfg.Duration = ms(10);
  Cfg.OfferedRate = 2.0 * apps::loadgen::saturationRate(Cfg);
  Cfg.Seed = 7;
  return Cfg;
}

TEST(LoadGenTest, ProtectedRunShedsAndAccountsEveryCall) {
  apps::loadgen::LoadGenConfig Cfg = smallLoad();
  Cfg.MaxPending = 3;
  apps::loadgen::LoadGenResult R = apps::loadgen::runLoadGen(Cfg);
  EXPECT_GT(R.Offered, 0u);
  EXPECT_GT(R.Completed, 0u);
  EXPECT_GT(R.Rejected, 0u) << "2x saturation must trip a budget of 3";
  EXPECT_EQ(R.Completed + R.Rejected + R.Failed, R.Offered);
  EXPECT_GT(R.ServerShed, 0u);
}

TEST(LoadGenTest, UnprotectedRunQueuesEverythingAndLosesNothing) {
  apps::loadgen::LoadGenConfig Cfg = smallLoad();
  Cfg.MaxPending = 0;
  apps::loadgen::LoadGenResult R = apps::loadgen::runLoadGen(Cfg);
  EXPECT_EQ(R.Completed, R.Offered) << "open-loop queueing loses nothing";
  EXPECT_EQ(R.Rejected, 0u);
  EXPECT_EQ(R.ServerShed, 0u);
}

TEST(LoadGenTest, RunsAreDeterministic) {
  apps::loadgen::LoadGenConfig Cfg = smallLoad();
  Cfg.MaxPending = 3;
  apps::loadgen::LoadGenResult A = apps::loadgen::runLoadGen(Cfg);
  apps::loadgen::LoadGenResult B = apps::loadgen::runLoadGen(Cfg);
  EXPECT_EQ(A.Offered, B.Offered);
  EXPECT_EQ(A.Completed, B.Completed);
  EXPECT_EQ(A.Rejected, B.Rejected);
  EXPECT_EQ(A.Failed, B.Failed);
  EXPECT_EQ(A.P50Us, B.P50Us);
  EXPECT_EQ(A.P99Us, B.P99Us);
  EXPECT_EQ(A.ServerShed, B.ServerShed);
  EXPECT_EQ(A.SloWaits, B.SloWaits);
}

} // namespace
