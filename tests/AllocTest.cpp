//===- tests/AllocTest.cpp - Heap allocations per simulated call ----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coroutine frame pool and the allocation ceilings it buys.  This file
/// replaces the global operator new to count heap allocations, so it is
/// built as its own executable: the replacement must not reach any other
/// suite.  Under AddressSanitizer the pool is compiled out (every frame is
/// a plain global allocation), so the replacement and every test that
/// depends on recycling are compiled out or skipped there.
///
//===----------------------------------------------------------------------===//

#include "AccumulatorGen.h"
#include "core/Proxy.h"
#include "core/Scoopp.h"
#include "net/Network.h"
#include "sim/Simulator.h"
#include "sim/Sync.h"
#include "sim/Task.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

using namespace parcs;
using sim::detail::FramePool;

//===----------------------------------------------------------------------===//
// Counting global allocator
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> HeapAllocs{0};
std::atomic<uint64_t> HeapFrees{0};

uint64_t heapAllocs() { return HeapAllocs.load(std::memory_order_relaxed); }
uint64_t heapFrees() { return HeapFrees.load(std::memory_order_relaxed); }
} // namespace

#if PARCS_FRAME_POOL

namespace {
// Out of line, so that GCC 12 does not inline free() into a replaced
// operator delete and pair it with the operator new call it sees at the
// allocation site (a -Wmismatched-new-delete false positive).
[[gnu::noinline]] void *countedAlloc(std::size_t Size) noexcept {
  HeapAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
[[gnu::noinline]] void countedFree(void *Block) noexcept {
  if (Block)
    HeapFrees.fetch_add(1, std::memory_order_relaxed);
  std::free(Block);
}
} // namespace

void *operator new(std::size_t Size) {
  if (void *Block = countedAlloc(Size))
    return Block;
  std::abort();
}
void *operator new[](std::size_t Size) {
  if (void *Block = countedAlloc(Size))
    return Block;
  std::abort();
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void operator delete(void *Block) noexcept { countedFree(Block); }
void operator delete[](void *Block) noexcept { countedFree(Block); }
void operator delete(void *Block, std::size_t) noexcept { countedFree(Block); }
void operator delete[](void *Block, std::size_t) noexcept {
  countedFree(Block);
}
void operator delete(void *Block, const std::nothrow_t &) noexcept {
  countedFree(Block);
}
void operator delete[](void *Block, const std::nothrow_t &) noexcept {
  countedFree(Block);
}

#endif // PARCS_FRAME_POOL

#define SKIP_WITHOUT_POOL()                                                    \
  if (!FramePool::Enabled)                                                     \
  GTEST_SKIP() << "frame pool compiled out under AddressSanitizer"

namespace {

//===----------------------------------------------------------------------===//
// Frame helpers
//===----------------------------------------------------------------------===//

/// Records the awaiting coroutine's frame address without suspending.
struct FrameAddress {
  void *&Out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> Handle) noexcept {
    Out = Handle.address();
    return false;
  }
  void await_resume() const noexcept {}
};

sim::Task<void> smallFrame(void *&Out) { co_await FrameAddress{Out}; }

/// A frame well past FramePool::MaxBytes: the array lives across a
/// suspension point, so it is part of the frame.
sim::Task<void> bigFrame(void *&Out, int &Sink) {
  std::array<char, 2 * FramePool::MaxBytes> Big{};
  Big[Sink] = 1;
  co_await FrameAddress{Out};
  Sink = Big[Sink];
}

/// Appends its id to a log when destroyed (frame teardown order probe).
struct TeardownProbe {
  std::vector<int> *Log;
  int Id;
  ~TeardownProbe() { Log->push_back(Id); }
};

sim::Task<void> parked(sim::Future<int> Never, std::vector<int> &Log,
                       int Id) {
  TeardownProbe Probe{&Log, Id};
  (void)co_await Never;
}

sim::Task<void> finishes(std::vector<int> &Log, int Id) {
  TeardownProbe Probe{&Log, Id};
  co_return;
}

sim::Task<void> waiter(sim::Future<int> F, std::vector<int> &Woken, int Id) {
  int Value = co_await F;
  Woken.push_back(Id * 100 + Value);
}

//===----------------------------------------------------------------------===//
// Echo parallel class
//===----------------------------------------------------------------------===//

class EchoHandler : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view, const remoting::Bytes &Args) override {
    co_return Args;
  }
  /// The typed method an agglomerated echo object is called through.
  sim::Task<int32_t> echo(int32_t Value) { co_return Value; }
};

/// Echo's typed proxy: calls echo() directly when the object is local.
class EchoProxy : public scoopp::ProxyBase {
public:
  using ProxyBase::ProxyBase;
  sim::Task<ErrorOr<int32_t>> echo(int32_t Value) {
    if (Direct)
      return invokeLocal<ErrorOr<int32_t>>(
          "echo", [Io = Direct, Value] { return Io->echo(Value); });
    return invokeSyncTyped<int32_t>("echo", Value);
  }

private:
  void adoptLocal(remoting::CallHandler *Io) override {
    Direct = dynamic_cast<EchoHandler *>(Io);
  }
  EchoHandler *Direct = nullptr;
};

/// accumulator.pci's implementation, called through its generated proxy.
/// addMany hands its batch back through Recycled, so a caller that reuses
/// it needs no new batch per call.
class AccumulatorImpl : public parcstest::gen::AccumulatorSkeleton {
public:
  sim::Task<ErrorOr<Unit>> add(int32_t Value) override {
    Sum += Value;
    co_return Unit();
  }
  sim::Task<ErrorOr<Unit>> addMany(std::vector<int32_t> Values) override {
    for (int32_t V : Values)
      Sum += V;
    Recycled = std::move(Values);
    co_return Unit();
  }
  sim::Task<ErrorOr<int32_t>> total() override { co_return Sum; }
  sim::Task<ErrorOr<std::string>> describe(std::string Prefix,
                                           bool) override {
    co_return Prefix;
  }
  sim::Task<ErrorOr<double>> scale(double Factor) override {
    co_return Factor;
  }
  sim::Task<ErrorOr<int64_t>> big(int64_t X) override { co_return X; }
  sim::Task<ErrorOr<scoopp::ParallelRef>> self() override {
    co_return scoopp::ParallelRef();
  }
  sim::Task<ErrorOr<Unit>> note(scoopp::ParallelRef) override {
    co_return Unit();
  }
  sim::Task<ErrorOr<int32_t>> checked(int32_t Value) override {
    co_return Value;
  }
  sim::Task<ErrorOr<Unit>> fail(std::string) override { co_return Unit(); }
  sim::Task<ErrorOr<std::vector<uint8_t>>>
  reverse(std::vector<uint8_t> Data) override {
    co_return Data;
  }

  inline static std::vector<int32_t> Recycled;
  int32_t Sum = 0;
};

/// Object names over 15 characters leave the string's inline buffer, so
/// every copy of one heap-allocates.
constexpr const char *LongEchoClass = "EchoWithALongClassName";

scoopp::ParallelClassRegistry rowRegistry() {
  scoopp::ParallelClassRegistry Registry;
  for (const char *Name : {"Echo", LongEchoClass})
    Registry.registerClass(
        {Name, [](scoopp::ScooppRuntime &, vm::Node &)
                   -> std::shared_ptr<remoting::CallHandler> {
           return std::make_shared<EchoHandler>();
         }});
  parcstest::gen::registerAccumulatorClass<AccumulatorImpl>(Registry);
  return Registry;
}

enum class CallKind {
  IntraGrainSync,
  IntraGrainAsync,
  /// A typed call on an agglomerated object: no marshalling at all.
  IntraGrainDirect,
  RemoteSync,
  /// A remote sync call on an object whose published name is long.
  RemoteSyncLongName,
  /// A remote sync call under a retry policy, as loadgen issues them:
  /// every call carries a deadline and a dedup id.
  RemoteReliable,
  /// A remote sync call over the SOAP/HTTP stack, whose base64 payload
  /// cannot alias the frame it arrives in.
  RemoteHttp,
  /// addMany on an agglomerated accumulator: the generated proxy moves
  /// the batch into the skeleton's method.
  GeneratedDirectArray,
  /// add on a remote accumulator: one one-way message per call.
  GeneratedRemoteOneWay
};

constexpr int WarmupCalls = 200;
constexpr int MeasuredCalls = 2000;

/// Creates an echo object and calls it: intra-grain through the creating
/// proxy (agglomerated), or remote from node 0 to an object on node 1.
/// Stores heap allocations per steady-state call in \p PerCall.
bool intraGrain(CallKind Kind) {
  return Kind == CallKind::IntraGrainSync ||
         Kind == CallKind::IntraGrainAsync ||
         Kind == CallKind::IntraGrainDirect ||
         Kind == CallKind::GeneratedDirectArray;
}

sim::Task<void> echoCalls(scoopp::ScooppRuntime &Rt, CallKind Kind,
                          double &PerCall) {
  bool Local = intraGrain(Kind);
  EchoProxy Owner(Rt, Local ? 0 : 1);
  if (co_await Owner.create(Kind == CallKind::RemoteSyncLongName
                                ? LongEchoClass
                                : "Echo"))
    co_return;
  scoopp::ProxyBase Remote(Rt, 0);
  if (!Local)
    Remote.bind(Owner.className(), Owner.ref());
  scoopp::ProxyBase &Target = Local ? Owner : Remote;
  remoting::Bytes Args = serial::encodeValues(int32_t(42));
  uint64_t Start = 0;
  for (int I = 0; I < WarmupCalls + MeasuredCalls; ++I) {
    if (I == WarmupCalls)
      Start = heapAllocs();
    if (Kind == CallKind::IntraGrainAsync)
      co_await Target.invokeAsync("echo", Args);
    else if (Kind == CallKind::IntraGrainDirect)
      (void)co_await Owner.echo(42);
    else
      (void)co_await Target.invokeSync("echo", Args);
  }
  PerCall = static_cast<double>(heapAllocs() - Start) / MeasuredCalls;
}

/// The same through accumulator.pci's generated proxy.
sim::Task<void> accumulatorCalls(scoopp::ScooppRuntime &Rt, CallKind Kind,
                                 double &PerCall) {
  bool Local = intraGrain(Kind);
  parcstest::gen::AccumulatorProxy Owner(Rt, Local ? 0 : 1);
  if (co_await Owner.create())
    co_return;
  parcstest::gen::AccumulatorProxy Remote(Rt, 0);
  if (!Local)
    Remote.bind(Owner.className(), Owner.ref());
  uint64_t Start = 0;
  for (int I = 0; I < WarmupCalls + MeasuredCalls; ++I) {
    if (I == WarmupCalls)
      Start = heapAllocs();
    if (Local) {
      std::vector<int32_t> Batch = std::move(AccumulatorImpl::Recycled);
      if (Batch.empty())
        Batch.assign(8, 1);
      co_await Owner.addMany(std::move(Batch));
    } else {
      co_await Remote.add(1);
    }
  }
  PerCall = static_cast<double>(heapAllocs() - Start) / MeasuredCalls;
}

double allocsPerCall(CallKind Kind) {
  scoopp::ScooppConfig Config;
  if (intraGrain(Kind))
    Config.Grain.AgglomerateObjects = true;
  else
    Config.Placement = scoopp::PlacementPolicy::LocalOnly;
  if (Kind == CallKind::RemoteHttp)
    Config.Stack = remoting::StackKind::MonoRemotingHttp117;
  if (Kind == CallKind::RemoteReliable) {
    Config.Retry.MaxAttempts = 3;
    Config.Retry.AttemptTimeout = sim::SimTime::seconds(2);
  }
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  scoopp::ScooppRuntime Rt(Machines, Net, rowRegistry(), Config);
  double PerCall = -1;
  bool Generated = Kind == CallKind::GeneratedDirectArray ||
                   Kind == CallKind::GeneratedRemoteOneWay;
  Machines.sim().spawn(Generated ? accumulatorCalls(Rt, Kind, PerCall)
                                 : echoCalls(Rt, Kind, PerCall));
  Machines.sim().run();
  std::printf("%.2f heap allocations per call\n", PerCall);
  return PerCall;
}

} // namespace

//===----------------------------------------------------------------------===//
// The pool
//===----------------------------------------------------------------------===//

TEST(FramePoolTest, FreedFrameIsReusedByTheNextFrameOfItsClass) {
  SKIP_WITHOUT_POOL();
  sim::Simulator Sim;
  void *First = nullptr;
  void *Second = nullptr;
  Sim.spawn(smallFrame(First));
  Sim.run();
  uint64_t Before = heapAllocs();
  Sim.spawn(smallFrame(Second));
  Sim.run();
  EXPECT_EQ(First, Second);
  EXPECT_EQ(heapAllocs(), Before) << "a recycled frame hit the heap";

  // Any size within the class takes the block; the next class does not.
  void *A = FramePool::allocate(100);
  FramePool::deallocate(A, 100);
  void *B = FramePool::allocate(120);
  EXPECT_EQ(A, B);
  FramePool::deallocate(B, 120);
  void *C = FramePool::allocate(130);
  EXPECT_NE(B, C);
  FramePool::deallocate(C, 130);
}

TEST(FramePoolTest, OversizedFrameFallsThroughToTheGlobalAllocator) {
  SKIP_WITHOUT_POOL();
  void *Out = nullptr;
  int Sink = 0;
  { sim::Task<void> Warm = smallFrame(Out); }
  { sim::Task<void> Warm = bigFrame(Out, Sink); }

  uint64_t Before = heapAllocs();
  { sim::Task<void> Small = smallFrame(Out); }
  EXPECT_EQ(heapAllocs(), Before) << "a small frame missed the pool";
  {
    sim::Task<void> Big = bigFrame(Out, Sink);
    EXPECT_EQ(heapAllocs(), Before + 1) << "an oversized frame was pooled";
  }
  uint64_t Freed = heapFrees();
  { sim::Task<void> Big = bigFrame(Out, Sink); }
  EXPECT_EQ(heapFrees(), Freed + 1) << "an oversized frame was kept";
}

TEST(FramePoolTest, ThreadExitReturnsPooledFramesToTheHeap) {
  SKIP_WITHOUT_POOL();
  uint64_t FreesAtThreadEnd = 0;
  std::thread Worker([&] {
    // Park one block in each of a few classes, then let the thread end.
    for (size_t Size = 64; Size <= 4 * 64; Size += 64)
      FramePool::deallocate(FramePool::allocate(Size), Size);
    FreesAtThreadEnd = heapFrees();
  });
  Worker.join();
  EXPECT_GE(heapFrees() - FreesAtThreadEnd, 4u)
      << "the exiting thread kept its pooled frames";
}

//===----------------------------------------------------------------------===//
// Detached frames and futures
//===----------------------------------------------------------------------===//

TEST(DetachedFramesTest, ReapDestroysParkedFramesInSpawnOrder) {
  std::vector<int> Log;
  sim::Simulator Sim;
  sim::Promise<int> Never(Sim);
  Sim.spawn(parked(Never.future(), Log, 0));
  Sim.spawn(finishes(Log, 1));
  Sim.spawn(parked(Never.future(), Log, 2));
  Sim.spawn(parked(Never.future(), Log, 3));
  Sim.run();
  EXPECT_EQ(Log, std::vector<int>({1})) << "only the finished frame is gone";

  Log.clear();
  Sim.reapDetached();
  EXPECT_EQ(Log, std::vector<int>({0, 2, 3}));

  Log.clear();
  Sim.reapDetached();
  EXPECT_TRUE(Log.empty()) << "reaped frames stayed on the live list";
}

TEST(FutureTest, ThreeWaitersWakeInFifoOrder) {
  std::vector<int> Woken;
  sim::Simulator Sim;
  sim::Promise<int> P(Sim);
  for (int Id = 0; Id < 3; ++Id)
    Sim.spawn(waiter(P.future(), Woken, Id));
  Sim.run();
  EXPECT_TRUE(Woken.empty());
  P.set(7);
  Sim.run();
  EXPECT_EQ(Woken, std::vector<int>({7, 107, 207}));
}

//===----------------------------------------------------------------------===//
// Allocation ceilings per steady-state call
//===----------------------------------------------------------------------===//
//
// What remains per byte-level intra-grain call is the caller's by-value
// argument copy and the echoed result.  A typed intra-grain call, the
// direct path agglomerated objects take, allocates nothing: its argument
// and result are plain values, its frames (the proxy's call, the
// adapter's request, the IO's method) come from the frame pool, and the
// event kernel recycles its nodes and reserves its heap up front, however
// far simulated time moves.  A remote call is down to the four buffers
// that outlive a step of it: the caller's argument copy, the request frame
// (body written straight into it), the handler's result and the reply
// frame.  The server's arguments and the caller's result take over the
// frames they arrived in instead of being copied out, the pending call
// waits in the issuing coroutine's frame, and channel queues are rings
// that stop allocating once warm.  An object name too long for the
// string's inline buffer adds one copy: the engine's by-value name
// parameter (the proxy passes its cached name by reference).  The server
// keeps none: once the arguments take over the frame the name arrived
// in, it reads the name from its name record's key.  A reliable call adds
// nothing once the dedup window is
// full: its fraction above four is the first 256 logical calls each giving
// their window entry a reply-tail buffer, which later entries reuse.  Over
// HTTP the SOAP payload is base64 text, so each side decodes it into a
// buffer of its own (which the arguments or the result then take over):
// two more.
//
// The generated proxy takes its arguments by value, so an agglomerated
// object's array argument moves from the caller into the skeleton's
// method: no copy.  A remote one-way call through it allocates the
// caller's argument buffer, the request frame and the engine's copy of
// the object's name ("io:Accumulator:0" is one character too long for the
// inline buffer); the void method's empty reply allocates nothing.

TEST(AllocCeilingTest, IntraGrainSyncCall) {
  SKIP_WITHOUT_POOL();
  double PerCall = allocsPerCall(CallKind::IntraGrainSync);
  ASSERT_GE(PerCall, 0) << "the echo object was not created";
  EXPECT_LE(PerCall, 2.0);
}

TEST(AllocCeilingTest, IntraGrainAsyncCall) {
  SKIP_WITHOUT_POOL();
  double PerCall = allocsPerCall(CallKind::IntraGrainAsync);
  ASSERT_GE(PerCall, 0) << "the echo object was not created";
  EXPECT_LE(PerCall, 2.0);
}

TEST(AllocCeilingTest, IntraGrainDirectCall) {
  SKIP_WITHOUT_POOL();
  double PerCall = allocsPerCall(CallKind::IntraGrainDirect);
  ASSERT_GE(PerCall, 0) << "the echo object was not created";
  EXPECT_LE(PerCall, 0.0);
}

TEST(AllocCeilingTest, RemoteSyncCall) {
  SKIP_WITHOUT_POOL();
  double PerCall = allocsPerCall(CallKind::RemoteSync);
  ASSERT_GE(PerCall, 0) << "the echo object was not created";
  EXPECT_LE(PerCall, 4.0);
}

TEST(AllocCeilingTest, RemoteSyncCallLongName) {
  SKIP_WITHOUT_POOL();
  double PerCall = allocsPerCall(CallKind::RemoteSyncLongName);
  ASSERT_GE(PerCall, 0) << "the echo object was not created";
  EXPECT_LE(PerCall, 5.0);
}

TEST(AllocCeilingTest, RemoteReliableCall) {
  SKIP_WITHOUT_POOL();
  double PerCall = allocsPerCall(CallKind::RemoteReliable);
  ASSERT_GE(PerCall, 0) << "the echo object was not created";
  EXPECT_LE(PerCall, 4.05);
}

TEST(AllocCeilingTest, RemoteHttpCall) {
  SKIP_WITHOUT_POOL();
  double PerCall = allocsPerCall(CallKind::RemoteHttp);
  ASSERT_GE(PerCall, 0) << "the echo object was not created";
  EXPECT_LE(PerCall, 6.0);
}

TEST(AllocCeilingTest, GeneratedDirectCallMovesItsArray) {
  SKIP_WITHOUT_POOL();
  double PerCall = allocsPerCall(CallKind::GeneratedDirectArray);
  ASSERT_GE(PerCall, 0) << "the accumulator was not created";
  EXPECT_LE(PerCall, 0.0) << "the batch was copied on its way in";
}

TEST(AllocCeilingTest, GeneratedRemoteOneWayCall) {
  SKIP_WITHOUT_POOL();
  double PerCall = allocsPerCall(CallKind::GeneratedRemoteOneWay);
  ASSERT_GE(PerCall, 0) << "the accumulator was not created";
  EXPECT_LE(PerCall, 3.0);
}
