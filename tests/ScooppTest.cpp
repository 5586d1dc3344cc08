//===- tests/ScooppTest.cpp - ParC#/SCOOPP runtime tests ------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "core/ImplAdapter.h"
#include "core/ObjectManager.h"
#include "core/Passive.h"
#include "core/Proxy.h"
#include "core/Scoopp.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace parcs;
using namespace parcs::scoopp;
using namespace parcs::sim;

namespace {

SimTime us(int64_t N) { return SimTime::microseconds(N); }

/// A stateful parallel class: accumulates integers (async "add"), answers
/// the sum (sync "total"), and can burn CPU ("work").
class CounterImpl : public CallHandler {
public:
  explicit CounterImpl(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method == "add") {
      int32_t Value = 0;
      if (!serial::decodeValues(Args, Value))
        co_return Error(ErrorCode::MalformedMessage, "add args");
      co_await Host.compute(us(2));
      Sum += Value;
      co_return Bytes{};
    }
    if (Method == "total") {
      co_await Host.compute(us(1));
      co_return serial::encodeValues(Sum);
    }
    if (Method == "work") {
      int64_t Micros = 0;
      if (!serial::decodeValues(Args, Micros))
        co_return Error(ErrorCode::MalformedMessage, "work args");
      co_await Host.compute(us(Micros));
      co_return serial::encodeValues(Unit());
    }
    if (Method == "whereAmI")
      co_return serial::encodeValues(static_cast<int32_t>(Host.id()));
    co_return Error(ErrorCode::UnknownMethod, std::string(Method));
  }

private:
  vm::Node &Host;
  int32_t Sum = 0;
};

/// The generated-proxy shape (what parcgen emits) for CounterImpl.
class CounterProxy : public ProxyBase {
public:
  static constexpr const char *ClassName = "Counter";
  using ProxyBase::ProxyBase;

  sim::Task<Error> create() { return ProxyBase::create(ClassName); }
  sim::Task<void> add(int32_t Value) {
    return invokeAsync("add", serial::encodeValues(Value));
  }
  sim::Task<ErrorOr<int32_t>> total() {
    return invokeSyncTyped<int32_t>("total");
  }
  sim::Task<ErrorOr<Unit>> work(int64_t Micros) {
    return invokeSyncTyped<Unit>("work", Micros);
  }
  sim::Task<ErrorOr<int32_t>> whereAmI() {
    return invokeSyncTyped<int32_t>("whereAmI");
  }
};

/// A counter with typed methods: an agglomerated object's proxy calls them
/// directly, and the byte-level handler decodes into them.
class TypedCounterImpl : public CallHandler {
public:
  explicit TypedCounterImpl(vm::Node &Host) : Host(Host) {}

  sim::Task<Error> add(int32_t Value) {
    co_await Host.compute(us(2));
    Sum += Value;
    co_return Error();
  }
  sim::Task<int32_t> total() {
    co_await Host.compute(us(1));
    co_return Sum;
  }
  /// Occupies the object for \p Micros, recording how many calls overlap
  /// and when each ran.
  sim::Task<Unit> hold(int64_t Micros) {
    MaxActive = std::max(MaxActive, ++Active);
    int64_t Start = nowNs();
    co_await Host.compute(us(Micros));
    Spans.emplace_back(Start, nowNs());
    --Active;
    co_return Unit();
  }
  /// Occupies the object, as hold() does, while \p Nested -- a call on
  /// another object -- runs.
  sim::Task<Unit> around(sim::Task<ErrorOr<Unit>> Nested) {
    MaxActive = std::max(MaxActive, ++Active);
    int64_t Start = nowNs();
    ErrorOr<Unit> Result = co_await std::move(Nested);
    EXPECT_TRUE(Result.hasValue());
    Spans.emplace_back(Start, nowNs());
    --Active;
    co_return Unit();
  }
  /// Works for \p Micros, then fails.
  sim::Task<ErrorOr<int32_t>> failAfter(int64_t Micros) {
    co_await Host.compute(us(Micros));
    co_return Error(ErrorCode::RemoteFault, "failAfter");
  }
  /// Sums \p Values, then overwrites its own copy of them.
  sim::Task<int32_t> sumAndClobber(std::vector<int32_t> Values) {
    int32_t Total = 0;
    for (int32_t &Value : Values) {
      Total += Value;
      Value = -1;
    }
    Values.push_back(0);
    co_return Total;
  }

  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    ++Marshalled;
    if (Method == "add") {
      int32_t Value = 0;
      if (!serial::decodeValues(Args, Value))
        co_return Error(ErrorCode::MalformedMessage, "add args");
      Error E = co_await add(Value);
      if (E)
        co_return E;
      co_return Bytes{};
    }
    if (Method == "total")
      co_return serial::encodeValues(co_await total());
    if (Method == "hold") {
      int64_t Micros = 0;
      if (!serial::decodeValues(Args, Micros))
        co_return Error(ErrorCode::MalformedMessage, "hold args");
      co_return serial::encodeValues(co_await hold(Micros));
    }
    co_return Error(ErrorCode::UnknownMethod, std::string(Method));
  }

  int32_t Sum = 0;
  int Active = 0;
  int MaxActive = 0;
  /// The virtual [start, end] of each hold() and around(), in end order.
  std::vector<std::pair<int64_t, int64_t>> Spans;
  /// Calls that arrived through the byte-level handler.
  int Marshalled = 0;

private:
  int64_t nowNs() { return Host.sim().now().nanosecondsCount(); }

  vm::Node &Host;
};

/// A typed proxy for TypedCounterImpl, as parcgen would emit it, plus a
/// switch that forces the marshalled path on a local object.
class TypedCounterProxy : public ProxyBase {
public:
  static constexpr const char *ClassName = "TypedCounter";
  using ProxyBase::ProxyBase;

  sim::Task<Error> create() { return ProxyBase::create(ClassName); }
  sim::Task<void> add(int32_t Value, bool Marshal = false) {
    if (Direct && !Marshal)
      return invokeLocal<void>(
          "add", [Io = Direct, Value] { return Io->add(Value); });
    return invokeAsync("add", serial::encodeValues(Value));
  }
  sim::Task<ErrorOr<int32_t>> total(bool Marshal = false) {
    if (Direct && !Marshal)
      return invokeLocal<ErrorOr<int32_t>>(
          "total", [Io = Direct] { return Io->total(); });
    return invokeSyncTyped<int32_t>("total");
  }
  sim::Task<ErrorOr<Unit>> hold(int64_t Micros) {
    return invokeLocal<ErrorOr<Unit>>(
        "hold", [Io = Direct, Micros] { return Io->hold(Micros); });
  }
  sim::Task<ErrorOr<Unit>> around(sim::Task<ErrorOr<Unit>> Nested) {
    return invokeLocal<ErrorOr<Unit>>(
        "around", [Io = Direct, Nested = std::move(Nested)]() mutable {
          return Io->around(std::move(Nested));
        });
  }
  sim::Task<ErrorOr<int32_t>> failAfter(int64_t Micros) {
    return invokeLocal<ErrorOr<int32_t>>(
        "failAfter", [Io = Direct, Micros] { return Io->failAfter(Micros); });
  }
  sim::Task<ErrorOr<int32_t>>
  sumAndClobber(const std::vector<int32_t> &Values) {
    return invokeLocal<ErrorOr<int32_t>>(
        "sumAndClobber", [Io = Direct, Values]() mutable {
          return Io->sumAndClobber(std::move(Values));
        });
  }

  /// The agglomerated IO (null unless the object is local).
  TypedCounterImpl *impl() { return Direct; }

private:
  void adoptLocal(CallHandler *Io) override {
    Direct = dynamic_cast<TypedCounterImpl *>(Io);
  }
  TypedCounterImpl *Direct = nullptr;
};

ParallelClassRegistry makeRegistry() {
  ParallelClassRegistry Registry;
  Registry.registerClass(
      {"Counter",
       [](ScooppRuntime &, vm::Node &Host) -> std::shared_ptr<CallHandler> {
         return std::make_shared<CounterImpl>(Host);
       }});
  Registry.registerClass(
      {TypedCounterProxy::ClassName,
       [](ScooppRuntime &, vm::Node &Host) -> std::shared_ptr<CallHandler> {
         return std::make_shared<TypedCounterImpl>(Host);
       }});
  return Registry;
}

struct ScooppWorld {
  explicit ScooppWorld(ScooppConfig Config = ScooppConfig(), int Nodes = 4)
      : Machines(Nodes, vm::VmKind::MonoVm117), Net(Machines.sim(), Nodes),
        Runtime(Machines, Net, makeRegistry(), Config) {}

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  ScooppRuntime Runtime;
};

//===----------------------------------------------------------------------===//
// Creation + placement
//===----------------------------------------------------------------------===//

TEST(ScooppCreateTest, RoundRobinSpreadsObjects) {
  ScooppWorld W;
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      for (int I = 0; I < 8; ++I) {
        CounterProxy P(W.Runtime, 0);
        Error E = co_await P.create();
        EXPECT_FALSE(E) << E.str();
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  // 8 objects over 4 nodes, round robin: two each.
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(W.Runtime.om(I).hostedObjects(), 2) << "node " << I;
  EXPECT_EQ(W.Runtime.stats().RemoteCreations, 8u);
  EXPECT_EQ(W.Runtime.stats().LocalCreations, 0u);
}

TEST(ScooppCreateTest, StaticAgglomerationCreatesLocally) {
  ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      for (int I = 0; I < 5; ++I) {
        CounterProxy P(W.Runtime, 2);
        (void)co_await P.create();
        EXPECT_TRUE(P.isLocal());
        EXPECT_EQ(P.ref().Node, 2);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_EQ(W.Runtime.om(2).hostedObjects(), 5);
  EXPECT_EQ(W.Runtime.stats().LocalCreations, 5u);
  EXPECT_EQ(W.Runtime.stats().RemoteCreations, 0u);
}

TEST(ScooppCreateTest, UnknownClassFails) {
  ScooppWorld W;
  Error Got;
  struct Proc {
    static Task<void> run(ScooppWorld &W, Error &Got) {
      ProxyBase P(W.Runtime, 0);
      Got = co_await P.create("NoSuchClass");
    }
  };
  W.sim().spawn(Proc::run(W, Got));
  W.sim().run();
  EXPECT_TRUE(Got);
  EXPECT_EQ(Got.code(), ErrorCode::UnknownType);
}

TEST(ScooppCreateTest, LeastLoadedAvoidsBusyNode) {
  ScooppConfig Config;
  Config.Placement = PlacementPolicy::LeastLoaded;
  ScooppWorld W(Config);
  // Preload node 1 (and 2 and 3 lightly) by hand.
  (void)W.Runtime.instantiateImpl(1, "Counter");
  (void)W.Runtime.instantiateImpl(1, "Counter");
  (void)W.Runtime.instantiateImpl(1, "Counter");
  (void)W.Runtime.instantiateImpl(2, "Counter");
  int Placed = -1;
  struct Proc {
    static Task<void> run(ScooppWorld &W, int &Placed) {
      CounterProxy P(W.Runtime, 1); // Home is the busy node.
      (void)co_await P.create();
      Placed = P.ref().Node;
    }
  };
  W.sim().spawn(Proc::run(W, Placed));
  W.sim().run();
  // Nodes 0 and 3 are empty; the tie-break picks the lowest id.
  EXPECT_EQ(Placed, 0);
}

TEST(ScooppCreateTest, RandomPlacementIsSeededDeterministic) {
  auto RunOnce = [] {
    ScooppConfig Config;
    Config.Placement = PlacementPolicy::Random;
    Config.Seed = 2026;
    ScooppWorld W(Config);
    std::vector<int> Nodes;
    struct Proc {
      static Task<void> run(ScooppWorld &W, std::vector<int> &Nodes) {
        for (int I = 0; I < 6; ++I) {
          CounterProxy P(W.Runtime, 0);
          (void)co_await P.create();
          Nodes.push_back(P.ref().Node);
        }
      }
    };
    W.sim().spawn(Proc::run(W, Nodes));
    W.sim().run();
    return Nodes;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

//===----------------------------------------------------------------------===//
// Calls: async, sync, ordering
//===----------------------------------------------------------------------===//

TEST(ScooppCallTest, AsyncThenSyncSeesAllEffects) {
  ScooppWorld W;
  ErrorOr<int32_t> Total(0);
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      EXPECT_FALSE(P.isLocal());
      for (int32_t I = 1; I <= 10; ++I)
        co_await P.add(I);
      Total = co_await P.total();
    }
  };
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 55);
}

TEST(ScooppCallTest, LocalProxyExecutesSynchronouslyAndSerially) {
  ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  ScooppWorld W(Config);
  ErrorOr<int32_t> Total(0);
  uint64_t WireBefore = 0, WireAfter = 0;
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      EXPECT_TRUE(P.isLocal());
      for (int32_t I = 1; I <= 4; ++I)
        co_await P.add(I);
      Total = co_await P.total();
    }
  };
  WireBefore = W.Net.messagesDelivered();
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  WireAfter = W.Net.messagesDelivered();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 10);
  EXPECT_EQ(WireAfter, WireBefore) << "intra-grain calls must not touch "
                                      "the network";
  EXPECT_EQ(W.Runtime.stats().LocalCalls, 5u);
  EXPECT_EQ(W.Runtime.stats().RemoteAsyncCalls, 0u);
}

TEST(ScooppCallTest, SyncErrorsPropagate) {
  ScooppWorld W;
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<Bytes> &Out) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      Out = co_await P.invokeSync("bogus", Bytes{});
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.error().code(), ErrorCode::UnknownMethod);
}

TEST(ScooppCallTest, MistypedReplyIsMalformedOnEveryTypedPath) {
  // whereAmI answers an int32; read as an int64, its four bytes do not
  // decode.  The proxy, a remote handle and a delegate all say so alike.
  ScooppWorld W;
  std::vector<ErrorOr<int64_t>> Got;
  struct Proc {
    static Task<void> run(ScooppWorld &W,
                          std::vector<ErrorOr<int64_t>> &Got) {
      CounterProxy P(W.Runtime, 0);
      Error E = co_await P.create();
      EXPECT_FALSE(E) << E.str();
      Got.push_back(co_await P.invokeSyncTyped<int64_t>("whereAmI"));
      remoting::RemoteHandle Handle(W.Runtime.endpoint(0), P.ref().Node,
                                    ScooppRuntime::Port, P.ref().Name);
      Got.push_back(co_await Handle.invokeTyped<int64_t>("whereAmI"));
      remoting::AsyncResult<int64_t> Async =
          remoting::beginInvoke<int64_t>(W.sim(), Handle, "whereAmI");
      Got.push_back(co_await Async);
    }
  };
  W.sim().spawn(Proc::run(W, Got));
  W.sim().run();
  ASSERT_EQ(Got.size(), 3u);
  for (const ErrorOr<int64_t> &Result : Got) {
    ASSERT_FALSE(Result.hasValue());
    EXPECT_EQ(Result.error().code(), ErrorCode::MalformedMessage);
    EXPECT_EQ(Result.error().message(), "result bytes did not decode");
  }
}

//===----------------------------------------------------------------------===//
// Method call aggregation
//===----------------------------------------------------------------------===//

TEST(ScooppAggregationTest, BuffersUntilFactor) {
  ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 4;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      co_await P.add(1);
      co_await P.add(2);
      co_await P.add(3);
      EXPECT_EQ(P.pendingCalls(), 3u) << "below factor: buffered";
      co_await P.add(4);
      EXPECT_EQ(P.pendingCalls(), 0u) << "factor reached: shipped";
      auto Total = co_await P.total();
      EXPECT_TRUE(Total.hasValue());
      if (Total) {
        EXPECT_EQ(*Total, 10);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_EQ(W.Runtime.stats().PackedMessages, 1u);
  EXPECT_EQ(W.Runtime.stats().PackedCalls, 4u);
  // One packed one-way message carried all four adds.
  EXPECT_EQ(W.Runtime.endpoint(0).stats().OneWaySent, 1u);
}

TEST(ScooppAggregationTest, SyncCallFlushesPartialBuffer) {
  ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 100;
  ScooppWorld W(Config);
  ErrorOr<int32_t> Total(0);
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      for (int32_t I = 1; I <= 7; ++I)
        co_await P.add(I);
      EXPECT_EQ(P.pendingCalls(), 7u);
      Total = co_await P.total(); // Must flush first.
    }
  };
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 28);
}

TEST(ScooppAggregationTest, AggregationReducesMessages) {
  auto MessagesFor = [](int Factor) {
    ScooppConfig Config;
    Config.Grain.MaxCallsPerMessage = Factor;
    ScooppWorld W(Config);
    struct Proc {
      static Task<void> run(ScooppWorld &W) {
        CounterProxy P(W.Runtime, 0);
        (void)co_await P.create();
        for (int32_t I = 0; I < 64; ++I)
          co_await P.add(I);
        co_await P.flush();
        (void)co_await P.total();
      }
    };
    W.sim().spawn(Proc::run(W));
    W.sim().run();
    return W.Net.messagesDelivered();
  };
  uint64_t NoAgg = MessagesFor(1);
  uint64_t Agg8 = MessagesFor(8);
  uint64_t Agg64 = MessagesFor(64);
  EXPECT_GT(NoAgg, Agg8);
  EXPECT_GT(Agg8, Agg64);
}

TEST(ScooppAggregationTest, ExplicitFlushShipsRemainder) {
  ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 10;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      co_await P.add(5);
      co_await P.add(6);
      EXPECT_EQ(P.pendingCalls(), 2u);
      co_await P.flush();
      EXPECT_EQ(P.pendingCalls(), 0u);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_EQ(W.Runtime.stats().PackedMessages, 1u);
  EXPECT_EQ(W.Runtime.stats().PackedCalls, 2u);
}

//===----------------------------------------------------------------------===//
// Packed-call codec
//===----------------------------------------------------------------------===//

TEST(PackedCallsTest, RoundTrip) {
  std::vector<BufferedCall> Calls = {{Bytes{1, 2, 3}, 0},
                                     {Bytes{}, 0},
                                     {Bytes{9}, 0}};
  auto Back = decodePackedCalls(encodePackedCalls(Calls));
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(*Back, Calls);
}

TEST(PackedCallsTest, RoundTripWithContexts) {
  // Mixed: some calls carry a causal id, some don't.
  std::vector<BufferedCall> Calls = {{Bytes{1, 2, 3}, 41},
                                     {Bytes{}, 0},
                                     {Bytes{9}, 1'000'000'007}};
  Bytes Encoded = encodePackedCalls(Calls);
  auto Back = decodePackedCalls(Encoded);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(*Back, Calls);
  // The ctx-free encoding of the same arguments is strictly smaller --
  // untraced runs keep the legacy byte format.
  std::vector<BufferedCall> NoCtx = Calls;
  for (BufferedCall &Call : NoCtx)
    Call.Ctx = 0;
  EXPECT_LT(encodePackedCalls(NoCtx).size(), Encoded.size());
}

TEST(PackedCallsTest, RejectsTruncated) {
  std::vector<BufferedCall> Calls = {{Bytes{1, 2, 3, 4, 5}, 0}};
  Bytes Encoded = encodePackedCalls(Calls);
  Encoded.pop_back();
  EXPECT_FALSE(decodePackedCalls(Encoded).hasValue());
}

TEST(PackedCallsTest, RejectsTruncatedContext) {
  std::vector<BufferedCall> Calls = {{Bytes{1}, 7}};
  Bytes Encoded = encodePackedCalls(Calls);
  Encoded.pop_back();
  EXPECT_FALSE(decodePackedCalls(Encoded).hasValue());
}

TEST(PackedCallsTest, RejectsTrailingGarbage) {
  Bytes Encoded = encodePackedCalls({{Bytes{1}, 0}});
  Encoded.push_back(0xff);
  EXPECT_FALSE(decodePackedCalls(Encoded).hasValue());
}

//===----------------------------------------------------------------------===//
// Adaptive grain-size control
//===----------------------------------------------------------------------===//

TEST(ScooppAdaptiveTest, FineGrainClassGetsAggregated) {
  ScooppConfig Config;
  Config.Grain.Adaptive = true;
  Config.Grain.MaxCallsPerMessage = 32;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      // Before any feedback, no aggregation.
      EXPECT_EQ(W.Runtime.om(P.ref().Node).aggregationFactor("Counter"), 1);
      // Execute a few tiny (2 us) methods to teach the remote OM.
      for (int32_t I = 0; I < 5; ++I)
        co_await P.add(I);
      (void)co_await P.total();
      // The hosting node's OM now knows the grain is tiny.
      EXPECT_GT(W.Runtime.om(P.ref().Node).aggregationFactor("Counter"), 1);
      EXPECT_TRUE(
          W.Runtime.om(P.ref().Node).shouldAgglomerate("Counter"));
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ScooppAdaptiveTest, CoarseGrainClassStaysUnaggregated) {
  ScooppConfig Config;
  Config.Grain.Adaptive = true;
  Config.Grain.MaxCallsPerMessage = 32;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      for (int I = 0; I < 5; ++I)
        (void)co_await P.work(5000); // 5 ms >> threshold.
      EXPECT_EQ(W.Runtime.om(P.ref().Node).aggregationFactor("Counter"), 1);
      EXPECT_FALSE(
          W.Runtime.om(P.ref().Node).shouldAgglomerate("Counter"));
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

//===----------------------------------------------------------------------===//
// Parallel-object references as arguments
//===----------------------------------------------------------------------===//

TEST(ParallelRefTest, EncodesAndDecodes) {
  ParallelRef Ref{3, "io:Counter:7"};
  ParallelRef Back;
  ASSERT_TRUE(ParallelRef::fromBytes(Ref.toBytes(), Back));
  EXPECT_EQ(Back, Ref);
  Bytes Junk = {1, 2};
  EXPECT_FALSE(ParallelRef::fromBytes(Junk, Back));
}

TEST(ParallelRefTest, SecondProxySharesState) {
  ScooppWorld W;
  ErrorOr<int32_t> Total(0);
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy A(W.Runtime, 0);
      (void)co_await A.create();
      co_await A.add(40);
      co_await A.flush();
      // Ship the reference (as bytes) to another proxy, possibly on a
      // different home node -- "references to parallel objects may be
      // copied or sent as a method argument".
      Bytes Wire = A.ref().toBytes();
      ParallelRef Ref;
      EXPECT_TRUE(ParallelRef::fromBytes(Wire, Ref));
      CounterProxy B(W.Runtime, 2);
      B.bind(CounterProxy::ClassName, Ref);
      co_await B.add(2);
      Total = co_await B.total();
    }
  };
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 42);
}

TEST(ParallelRefTest, BindKeepsAsyncDispatchEvenOnHostingNode) {
  // A received reference addresses a foreign grain: calls stay
  // asynchronous (loopback remoting) even on the hosting node, so
  // co-located parallel objects can use both CPUs.
  ScooppWorld W;
  ErrorOr<int32_t> Total(0);
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy A(W.Runtime, 0);
      (void)co_await A.create(); // Round robin from node 0 -> node 1.
      EXPECT_EQ(A.ref().Node, 1);
      CounterProxy B(W.Runtime, 1); // Home == hosting node.
      B.bind(CounterProxy::ClassName, A.ref());
      EXPECT_FALSE(B.isLocal());
      co_await B.add(4);
      Total = co_await B.total(); // Dispatches through loopback.
    }
  };
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 4);
}




//===----------------------------------------------------------------------===//
// Passive objects (copies move between parallel objects)
//===----------------------------------------------------------------------===//

/// A passive linked node (reusable sequential code, per Section 3.1).
class PassiveNode : public serial::SerializableObject {
public:
  static constexpr const char *TypeNameStr = "scoopp.PassiveNode";
  int32_t Value = 0;
  PassiveNode *Next = nullptr;

  std::string_view typeName() const override { return TypeNameStr; }
  void writeFields(serial::ObjectWriter &Writer) const override {
    Writer.write(Value);
    Writer.writeRef(Next);
  }
  bool readFields(serial::ObjectReader &Reader) override {
    return Reader.read(Value) && Reader.readRefAs(Next);
  }
};

/// A parallel class consuming passive graphs: sums the list it receives.
class GraphSumImpl : public CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method != "consume")
      co_return Error(ErrorCode::UnknownMethod, std::string(Method));
    serial::ObjectPool Pool;
    auto Root = decodePassiveGraph(Args, Pool);
    if (!Root)
      co_return Root.error();
    int32_t Sum = 0;
    int Guard = 0;
    for (serial::SerializableObject *Cursor = *Root; Cursor && Guard < 100;
         ++Guard) {
      auto *Node = serial::objectCast<PassiveNode>(Cursor);
      if (!Node)
        co_return Error(ErrorCode::MalformedMessage, "not a PassiveNode");
      Sum += Node->Value;
      // Mutating the received copy must never reach the sender.
      Node->Value = -1;
      Cursor = Node->Next;
    }
    Total += Sum;
    co_return serial::encodeValues(Total);
  }

private:
  int32_t Total = 0;
};

TEST(ScooppPassiveTest, GraphCopiesMoveBetweenParallelObjects) {
  serial::TypeRegistry::global().registerType<PassiveNode>();
  ScooppConfig Config;
  ScooppWorld W(Config);
  W.Runtime.cluster(); // Touch to silence unused warnings if any.
  // Register the consumer class in a fresh registry-backed world is not
  // possible post-construction, so publish it directly.
  auto Made = std::make_shared<GraphSumImpl>();
  W.Runtime.endpoint(1).publish("graphsum", Made);

  bool Done = false;
  struct Proc {
    static Task<void> run(ScooppWorld &W, bool &Done) {
      // Build a passive list 1 -> 2 -> 3 in the caller's context.
      serial::ObjectPool Mine;
      PassiveNode *A = Mine.create<PassiveNode>();
      PassiveNode *B = Mine.create<PassiveNode>();
      PassiveNode *C = Mine.create<PassiveNode>();
      A->Value = 1;
      B->Value = 2;
      C->Value = 3;
      A->Next = B;
      B->Next = C;

      remoting::RemoteHandle Handle(W.Runtime.endpoint(0), 1,
                                    ScooppRuntime::Port, "graphsum");
      ErrorOr<Bytes> First =
          co_await Handle.invoke("consume", encodePassiveGraph(A));
      EXPECT_TRUE(First.hasValue());
      int32_t Total = 0;
      if (First) {
        EXPECT_TRUE(serial::decodeValues(*First, Total));
        EXPECT_EQ(Total, 6);
      }
      // The remote mutated its *copy*; the original is untouched, so a
      // second transfer sums the same values again.
      EXPECT_EQ(A->Value, 1);
      ErrorOr<Bytes> Second =
          co_await Handle.invoke("consume", encodePassiveGraph(A));
      EXPECT_TRUE(Second.hasValue());
      if (Second) {
        EXPECT_TRUE(serial::decodeValues(*Second, Total));
        EXPECT_EQ(Total, 12);
      }
      Done = true;
    }
  };
  W.sim().spawn(Proc::run(W, Done));
  W.sim().run();
  EXPECT_TRUE(Done);
}

TEST(ScooppPassiveTest, CloneIsolatesCoLocatedObjects) {
  serial::TypeRegistry::global().registerType<PassiveNode>();
  serial::ObjectPool Mine;
  PassiveNode *A = Mine.create<PassiveNode>();
  PassiveNode *B = Mine.create<PassiveNode>();
  A->Value = 10;
  B->Value = 20;
  A->Next = B;
  B->Next = A; // Cycle survives the copy.

  serial::ObjectPool Theirs;
  auto Copy = clonePassiveGraph(A, Theirs);
  ASSERT_TRUE(Copy.hasValue());
  auto *A2 = serial::objectCast<PassiveNode>(*Copy);
  ASSERT_NE(A2, nullptr);
  EXPECT_NE(A2, A);
  EXPECT_EQ(A2->Next->Next, A2);
  A2->Value = 999;
  EXPECT_EQ(A->Value, 10);
}

//===----------------------------------------------------------------------===//
// Concurrent access from multiple home nodes (active-object integrity)
//===----------------------------------------------------------------------===//

TEST(ScooppConcurrencyTest, ManyNodesHammerOneObjectWithoutLostUpdates) {
  // Drivers on every node add into the same parallel object through
  // their own proxies.  Parallel objects execute one method at a time,
  // so no update may be lost even though calls interleave arbitrarily.
  ScooppWorld W;
  const int32_t PerDriver = 25;
  struct Owner {
    static Task<void> run(ScooppWorld &W, ParallelRef &Ref,
                          sim::WaitGroup &Ready) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      Ref = P.ref();
      Ready.done();
    }
  };
  struct Driver {
    static Task<void> run(ScooppWorld &W, int Home, ParallelRef &Ref,
                          sim::WaitGroup &Ready, sim::WaitGroup &Done,
                          int32_t PerDriver) {
      co_await Ready.wait();
      CounterProxy P(W.Runtime, Home);
      P.bind(CounterProxy::ClassName, Ref);
      for (int32_t I = 1; I <= PerDriver; ++I)
        co_await P.add(I);
      co_await P.flush();
      Done.done();
    }
  };
  ParallelRef Ref;
  sim::WaitGroup Ready(W.sim()), Done(W.sim());
  Ready.add(1);
  Done.add(4);
  W.sim().spawn(Owner::run(W, Ref, Ready));
  for (int Home = 0; Home < 4; ++Home)
    W.sim().spawn(Driver::run(W, Home, Ref, Ready, Done, PerDriver));

  ErrorOr<int32_t> Total(0);
  struct Check {
    static Task<void> run(ScooppWorld &W, ParallelRef &Ref,
                          sim::WaitGroup &Done, ErrorOr<int32_t> &Total) {
      co_await Done.wait();
      CounterProxy P(W.Runtime, 0);
      P.bind(CounterProxy::ClassName, Ref);
      Total = co_await P.total();
    }
  };
  W.sim().spawn(Check::run(W, Ref, Done, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 4 * PerDriver * (PerDriver + 1) / 2);
}

//===----------------------------------------------------------------------===//
// Direct intra-grain calls
//===----------------------------------------------------------------------===//

ScooppConfig agglomerating() {
  ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  return Config;
}

/// What one run of twenty adds and a total on an agglomerated counter
/// leaves behind.
struct CounterRun {
  int64_t EndNs = -1;
  uint64_t Events = 0;
  uint64_t LocalCalls = 0;
  int64_t GrainNs = -1;
  int32_t Total = -1;
  int Marshalled = -1;
};

CounterRun runTypedCounter(bool Marshal) {
  ScooppWorld W(agglomerating());
  CounterRun Out;
  struct Proc {
    static Task<void> run(ScooppWorld &W, bool Marshal, CounterRun &Out) {
      TypedCounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      EXPECT_TRUE(P.isLocal());
      for (int32_t I = 1; I <= 20; ++I)
        co_await P.add(I, Marshal);
      ErrorOr<int32_t> Total = co_await P.total(Marshal);
      if (Total)
        Out.Total = *Total;
      Out.Marshalled = P.impl()->Marshalled;
    }
  };
  W.sim().spawn(Proc::run(W, Marshal, Out));
  W.sim().run();
  Out.EndNs = W.sim().now().nanosecondsCount();
  Out.Events = W.sim().eventsProcessed();
  Out.LocalCalls = W.Runtime.stats().LocalCalls;
  Out.GrainNs = W.Runtime.om(0)
                    .grainEstimator(TypedCounterProxy::ClassName)
                    .average()
                    .nanosecondsCount();
  return Out;
}

TEST(ScooppDirectCallTest, DirectAndMarshalledCallsAgree) {
  CounterRun Direct = runTypedCounter(/*Marshal=*/false);
  CounterRun Marshalled = runTypedCounter(/*Marshal=*/true);
  EXPECT_EQ(Direct.Marshalled, 0) << "the direct path marshalled";
  EXPECT_EQ(Marshalled.Marshalled, 21);
  EXPECT_EQ(Direct.Total, 210);
  EXPECT_EQ(Marshalled.Total, 210);
  EXPECT_EQ(Direct.LocalCalls, 21u);
  EXPECT_EQ(Direct.EndNs, Marshalled.EndNs);
  EXPECT_EQ(Direct.Events, Marshalled.Events);
  EXPECT_EQ(Direct.LocalCalls, Marshalled.LocalCalls);
  EXPECT_GT(Direct.GrainNs, 0);
  EXPECT_EQ(Direct.GrainNs, Marshalled.GrainNs);
}

/// What two overlapping direct calls on agglomerated object A leave
/// behind.  The first holds A for 10 us, or, when nested, holds A while
/// A's method makes a direct call that holds agglomerated object B for
/// 10 us; the second holds A for 10 us.
struct OverlapRun {
  int Finished = 0;
  int MaxActiveA = -1;
  std::vector<std::pair<int64_t, int64_t>> SpansA, SpansB;
};

OverlapRun runOverlappingDirectCalls(bool Nested) {
  ScooppWorld W(agglomerating());
  OverlapRun Out;
  struct Proc {
    static Task<void> caller(Task<ErrorOr<Unit>> Call, sim::WaitGroup &Done,
                             int &Finished) {
      ErrorOr<Unit> Held = co_await std::move(Call);
      EXPECT_TRUE(Held.hasValue());
      ++Finished;
      Done.done();
    }
    static Task<void> run(ScooppWorld &W, bool Nested, OverlapRun &Out) {
      TypedCounterProxy A(W.Runtime, 0);
      TypedCounterProxy B(W.Runtime, 0);
      (void)co_await A.create();
      (void)co_await B.create();
      sim::WaitGroup Done(W.sim());
      Done.add(2);
      W.sim().spawn(caller(Nested ? A.around(B.hold(10)) : A.hold(10), Done,
                           Out.Finished));
      W.sim().spawn(caller(A.hold(10), Done, Out.Finished));
      co_await Done.wait();
      Out.MaxActiveA = A.impl()->MaxActive;
      Out.SpansA = A.impl()->Spans;
      Out.SpansB = B.impl()->Spans;
    }
  };
  W.sim().spawn(Proc::run(W, Nested, Out));
  W.sim().run();
  return Out;
}

TEST(ScooppDirectCallTest, OverlappingDirectCallsRunOneAtATime) {
  OverlapRun Flat = runOverlappingDirectCalls(/*Nested=*/false);
  EXPECT_EQ(Flat.Finished, 2);
  EXPECT_EQ(Flat.MaxActiveA, 1) << "two direct calls ran on the object at once";
  ASSERT_EQ(Flat.SpansA.size(), 2u);
  EXPECT_EQ(Flat.SpansA[1].first, Flat.SpansA[0].second)
      << "the second call did not wait for the first";

  // The lock covers a nested direct call: A's first call returns only
  // after its direct call on B has, and A's second call starts then, at
  // the virtual time it always has.
  OverlapRun Nested = runOverlappingDirectCalls(/*Nested=*/true);
  EXPECT_EQ(Nested.Finished, 2);
  EXPECT_EQ(Nested.MaxActiveA, 1);
  ASSERT_EQ(Nested.SpansA.size(), 2u);
  ASSERT_EQ(Nested.SpansB.size(), 1u);
  EXPECT_GT(Nested.SpansB[0].first, Nested.SpansA[0].first);
  EXPECT_LE(Nested.SpansB[0].second, Nested.SpansA[0].second);
  EXPECT_EQ(Nested.SpansA[1].first, Nested.SpansA[0].second)
      << "A's second call did not wait for the nested call to return";
  EXPECT_EQ(Nested.SpansA[1].first, 26'240);
}

TEST(ScooppDirectCallTest, FailingDirectCallReleasesTheLockAndFeedsTheGrain) {
  ScooppWorld W(agglomerating());
  ErrorOr<int32_t> Failed(0);
  ErrorOr<int32_t> Next = Error(ErrorCode::RemoteFault, "not run");
  int64_t GrainNs = -1;
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Failed,
                          int64_t &GrainNs, ErrorOr<int32_t> &Next) {
      TypedCounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      Failed = co_await P.failAfter(5);
      const GrainEstimator &Grain =
          W.Runtime.om(0).grainEstimator(TypedCounterProxy::ClassName);
      if (Grain.hasData())
        GrainNs = Grain.average().nanosecondsCount();
      // A lock the failure kept would leave this call waiting forever.
      Next = co_await P.total();
    }
  };
  W.sim().spawn(Proc::run(W, Failed, GrainNs, Next));
  W.sim().run();
  ASSERT_FALSE(Failed.hasValue());
  EXPECT_EQ(Failed.error().code(), ErrorCode::RemoteFault);
  EXPECT_EQ(GrainNs, us(5).nanosecondsCount())
      << "the failed call fed no grain sample";
  ASSERT_TRUE(Next.hasValue()) << Next.error().str();
  EXPECT_EQ(*Next, 0);
}

TEST(ScooppAggregationTest, PackedBatchHoldsTheLockAcrossItsCalls) {
  // A sync call that reaches the object while a packed batch of four
  // hold() calls runs there waits for the whole batch, not just for the
  // call in progress, even though the dispatch pool would let them
  // overlap.
  ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 4;
  Config.DispatchWorkers = 4;
  ScooppWorld W(Config);
  TypedCounterImpl *Impl = nullptr;
  ErrorOr<Unit> Mid = Error(ErrorCode::RemoteFault, "not run");
  struct Proc {
    static Task<void> run(ScooppWorld &W, TypedCounterImpl *&Impl,
                          ErrorOr<Unit> &Mid) {
      TypedCounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      EXPECT_FALSE(P.isLocal());
      std::shared_ptr<CallHandler> Served =
          W.Runtime.endpoint(P.ref().Node).findPublished(P.ref().Name);
      Impl = dynamic_cast<TypedCounterImpl *>(
          &static_cast<ImplAdapter &>(*Served).inner());
      for (int I = 0; I < 4; ++I)
        co_await P.invokeAsync("hold", serial::encodeValues(int64_t(100)));
      EXPECT_EQ(W.Runtime.stats().PackedMessages, 1u);
      co_await W.sim().delay(us(100));
      Mid = co_await P.invokeSyncTyped<Unit>("hold", int64_t(1));
    }
  };
  W.sim().spawn(Proc::run(W, Impl, Mid));
  W.sim().run();
  ASSERT_TRUE(Mid.hasValue()) << Mid.error().str();
  ASSERT_NE(Impl, nullptr);
  EXPECT_EQ(Impl->MaxActive, 1);
  ASSERT_EQ(Impl->Spans.size(), 5u);
  for (size_t I = 1; I < 4; ++I)
    EXPECT_EQ(Impl->Spans[I].first, Impl->Spans[I - 1].second)
        << "the batch let go of the object before call " << I;
  // The sync call arrived mid-batch and waited for the lock: it starts the
  // instant the batch lets go.
  EXPECT_EQ(Impl->Spans[4].first, Impl->Spans[3].second);
  EXPECT_EQ(Impl->Spans[4].second - Impl->Spans[4].first, 1000);
}

TEST(ScooppDirectCallTest, CalleeMutationLeavesCallerArgumentUnchanged) {
  ScooppWorld W(agglomerating());
  std::vector<int32_t> Mine = {1, 2, 3};
  ErrorOr<int32_t> Sum = Error(ErrorCode::RemoteFault, "not run");
  struct Proc {
    static Task<void> run(ScooppWorld &W, std::vector<int32_t> &Mine,
                          ErrorOr<int32_t> &Sum) {
      TypedCounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      Sum = co_await P.sumAndClobber(Mine);
      EXPECT_EQ(P.impl()->Marshalled, 0);
    }
  };
  W.sim().spawn(Proc::run(W, Mine, Sum));
  W.sim().run();
  ASSERT_TRUE(Sum.hasValue());
  EXPECT_EQ(*Sum, 6);
  EXPECT_EQ(Mine, (std::vector<int32_t>{1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// Object destruction (ParC++ lifetime semantics)
//===----------------------------------------------------------------------===//

TEST(ScooppDestroyTest, RemoteObjectIsDestroyed) {
  ScooppWorld W;
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      int HostNode = P.ref().Node;
      ParallelRef Victim = P.ref();
      EXPECT_EQ(W.Runtime.om(HostNode).hostedObjects(), 1);
      Error E = co_await P.destroy();
      EXPECT_FALSE(E) << E.str();
      EXPECT_FALSE(P.created());
      EXPECT_EQ(W.Runtime.om(HostNode).hostedObjects(), 0);
      // Stale references now fault.
      CounterProxy Stale(W.Runtime, 0);
      Stale.bind(CounterProxy::ClassName, Victim);
      auto Out = co_await Stale.total();
      EXPECT_FALSE(Out.hasValue());
      if (!Out) {
        EXPECT_EQ(Out.error().code(), ErrorCode::UnknownObject);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ScooppDestroyTest, LocalAgglomeratedObjectIsDestroyed) {
  ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 1);
      (void)co_await P.create();
      EXPECT_TRUE(P.isLocal());
      EXPECT_EQ(W.Runtime.om(1).hostedObjects(), 1);
      Error E = co_await P.destroy();
      EXPECT_FALSE(E) << E.str();
      EXPECT_EQ(W.Runtime.om(1).hostedObjects(), 0);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ScooppDestroyTest, DoubleDestroyFaults) {
  ScooppWorld W;
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy A(W.Runtime, 0);
      (void)co_await A.create();
      ParallelRef Victim = A.ref();
      EXPECT_FALSE(co_await A.destroy());
      CounterProxy B(W.Runtime, 0);
      B.bind(CounterProxy::ClassName, Victim);
      Error Second = co_await B.destroy();
      EXPECT_TRUE(Second);
      EXPECT_EQ(Second.code(), ErrorCode::UnknownObject);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ScooppDestroyTest, PendingAggregatesFlushBeforeDestroy) {
  ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 100;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      co_await P.add(1);
      co_await P.add(2);
      EXPECT_EQ(P.pendingCalls(), 2u);
      EXPECT_FALSE(co_await P.destroy());
      EXPECT_EQ(P.pendingCalls(), 0u);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  // The flushed adds really executed before destruction (one packed
  // message).
  EXPECT_EQ(W.Runtime.stats().PackedMessages, 1u);
}

//===----------------------------------------------------------------------===//
// E4: proxy overhead over raw remoting is "not noticeable"
//===----------------------------------------------------------------------===//

TEST(ScooppOverheadTest, ProxyPenaltyUnderFivePercent) {
  // Raw remoting round trips.
  double RawUs = 0, ProxyUs = 0;
  int Rounds = 40;
  {
    ScooppWorld W;
    struct Proc {
      static Task<void> run(ScooppWorld &W, int Rounds, double &OutUs) {
        auto Made = W.Runtime.instantiateImpl(1, "Counter");
        EXPECT_TRUE(Made.hasValue());
        remoting::RemoteHandle Handle(W.Runtime.endpoint(0), 1,
                                      ScooppRuntime::Port, Made->first);
        (void)co_await Handle.invokeTyped<int32_t>("total");
        SimTime Start = W.sim().now();
        for (int I = 0; I < Rounds; ++I)
          (void)co_await Handle.invokeTyped<int32_t>("total");
        OutUs = (W.sim().now() - Start).toMicrosF() / Rounds;
      }
    };
    W.sim().spawn(Proc::run(W, Rounds, RawUs));
    W.sim().run();
  }
  {
    ScooppWorld W;
    struct Proc {
      static Task<void> run(ScooppWorld &W, int Rounds, double &OutUs) {
        CounterProxy P(W.Runtime, 0);
        (void)co_await P.create();
        (void)co_await P.total();
        SimTime Start = W.sim().now();
        for (int I = 0; I < Rounds; ++I)
          (void)co_await P.total();
        OutUs = (W.sim().now() - Start).toMicrosF() / Rounds;
      }
    };
    W.sim().spawn(Proc::run(W, Rounds, ProxyUs));
    W.sim().run();
  }
  EXPECT_GT(ProxyUs, RawUs) << "the proxy is not free";
  EXPECT_LT(ProxyUs, RawUs * 1.05) << "but its penalty is not noticeable";
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(ScooppTest, DeterministicAcrossRuns) {
  auto RunOnce = [] {
    ScooppConfig Config;
    Config.Grain.MaxCallsPerMessage = 4;
    ScooppWorld W(Config);
    struct Proc {
      static Task<void> run(ScooppWorld &W) {
        CounterProxy P(W.Runtime, 0);
        (void)co_await P.create();
        for (int32_t I = 0; I < 20; ++I)
          co_await P.add(I);
        (void)co_await P.total();
      }
    };
    W.sim().spawn(Proc::run(W));
    W.sim().run();
    return W.sim().now();
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

} // namespace
