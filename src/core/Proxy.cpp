//===- core/Proxy.cpp -----------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "core/Proxy.h"

#include "core/ImplAdapter.h"
#include "core/ObjectManager.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Calibration.h"

#include <algorithm>

using namespace parcs;
using namespace parcs::scoopp;

ProxyBase::ProxyBase(ScooppRuntime &Runtime, int HomeNode)
    : Runtime(Runtime), Home(HomeNode) {
  assert(HomeNode >= 0 && HomeNode < Runtime.nodeCount() &&
         "proxy home node out of range");
}

ProxyBase::~ProxyBase() {
  if (pendingCalls() > 0)
    PARCS_LOG(Warn, "proxy for '" << Class << "' destroyed with "
                                  << pendingCalls()
                                  << " unflushed aggregated calls");
}

vm::Node &ProxyBase::node() { return Runtime.cluster().node(Home); }

void ProxyBase::recordCreateDecision(bool Agglomerated) {
  metrics::Registry::global()
      .counter(Agglomerated ? "scoopp.creations_agglomerated"
                            : "scoopp.creations_parallel")
      .add(1);
  if (!trace::enabled())
    return;
  // Both cumulative series are sampled on every decision, so the trace
  // always shows the agglomeration balance even when one side stays flat.
  int64_t NowNs = node().sim().now().nanosecondsCount();
  const ScooppStats &S = Runtime.stats();
  trace::instant(Home, 0,
                 Agglomerated ? "scoopp.create.agglomerated"
                              : "scoopp.create.parallel",
                 NowNs);
  trace::counter(Home, "scoopp.local_creations", NowNs,
                 static_cast<int64_t>(S.LocalCreations));
  trace::counter(Home, "scoopp.remote_creations", NowNs,
                 static_cast<int64_t>(S.RemoteCreations));
}

uint64_t ProxyBase::beginInvoke() {
  uint64_t InvokeCtx = trace::mintCausalId();
  if (InvokeCtx)
    trace::instantCtx(Home, 0, "scoopp.invoke",
                      node().sim().now().nanosecondsCount(), InvokeCtx, 0);
  return InvokeCtx;
}

void ProxyBase::noteLocalAsyncFailure(std::string_view Method,
                                      const Error &Failure) {
  PARCS_LOG(Warn, "local async call '" << Class << "." << Method
                                       << "' failed: " << Failure.str());
}

const ParallelRef &ProxyBase::route() {
  // Live migration moves objects underneath their proxies; the runtime's
  // route table records each move, and the proxy absorbs the relocation
  // here so subsequent calls go straight to the new home (stragglers that
  // raced a cutover are still forwarded by the source's tombstone).
  const ParallelRef &Now = Runtime.resolveRoute(Ref);
  if (Now != Ref)
    Ref = Now;
  return Ref;
}

sim::Task<Error> ProxyBase::create(std::string ClassName) {
  assert(!Ref.valid() && "proxy already created/bound");
  Class = std::move(ClassName);
  ObjectManager &Om = Runtime.om(Home);

  // "The first task of the newly created PO is to request the creation of
  // the IO" -- after the OM's grain decision (Fig. 5).
  co_await node().compute(calib::OmPlacementCost);

  if (Om.shouldAgglomerate(Class)) {
    // Intra-grain object creation (call d in Fig. 3): create the IO
    // locally and notify the local OM (done by ImplAdapter).
    auto Made = Runtime.instantiateImpl(Home, Class);
    if (!Made)
      co_return Made.error();
    Ref = ParallelRef{Home, Made->first};
    Local = Made->second;
    adoptLocal(&Local->inner());
    ++Runtime.stats().LocalCreations;
    recordCreateDecision(/*Agglomerated=*/true);
    co_return Error();
  }

  // Parallel creation: the OM selects a processing node "according to the
  // current load distribution policy" (calls c in Fig. 3).
  int Target = co_await Om.placeObject(Class);
  ++Runtime.stats().RemoteCreations;
  recordCreateDecision(/*Agglomerated=*/false);
  if (Target == Home) {
    // Placement landed on our own node.  The object is created through
    // the local factory path, but it remains its *own grain*: calls keep
    // asynchronous dispatch semantics (through the loopback endpoint), so
    // co-located parallel objects still exploit both CPUs of a node.
    // Only agglomeration (above) produces the direct intra-grain path.
    auto Made = Runtime.instantiateImpl(Home, Class);
    if (!Made)
      co_return Made.error();
    Ref = ParallelRef{Home, Made->first};
    Local = nullptr;
    co_return Error();
  }
  // Request remote creation through the target node's factory, like
  // Fig. 5's rf.PrimeServer().
  uint64_t CreateCtx = trace::mintCausalId();
  if (CreateCtx)
    trace::instantCtx(Home, 0, "scoopp.create",
                      node().sim().now().nanosecondsCount(), CreateCtx, 0);
  ErrorOr<Bytes> Raw = co_await Runtime.endpoint(Home).callReliable(
      Target, ScooppRuntime::Port, ScooppRuntime::FactoryName, "create",
      serial::encodeValues(Class), CreateCtx);
  if (!Raw) {
    bool Transport = ScooppRuntime::transportError(Raw.error().code());
    bool Overload = Raw.error().code() == ErrorCode::Overloaded;
    if (Transport)
      Runtime.noteCallOutcome(Target, false);
    else if (Overload)
      Runtime.noteOverloaded(Target);
    if (Transport || Overload) {
      if (Runtime.config().Retry.enabled()) {
        // The target is unreachable (or refusing admission) even after
        // retries: degrade to local agglomeration rather than fail the
        // creation -- the paper's grain machinery makes a local IO
        // semantically equivalent, just less parallel.
        metrics::Registry::global()
            .counter("scoopp.creations_failover")
            .add(1);
        trace::instant(Home, 0, "fault.create_failover",
                       node().sim().now().nanosecondsCount());
        PARCS_LOG(Warn, "scoopp: create of '"
                            << Class << "' on node " << Target
                            << " failed (" << Raw.error().str()
                            << "); falling back to local instance");
        auto Made = Runtime.instantiateImpl(Home, Class);
        if (!Made)
          co_return Made.error();
        Ref = ParallelRef{Home, Made->first};
        Local = nullptr;
        ++Runtime.stats().LocalCreations;
        co_return Error();
      }
    }
    co_return Raw.error();
  }
  Runtime.noteCallOutcome(Target, true);
  std::string Name;
  if (!serial::decodeValues(*Raw, Name))
    co_return Error(ErrorCode::MalformedMessage, "factory reply");
  Ref = ParallelRef{Target, std::move(Name)};
  Local = nullptr;
  co_return Error();
}

void ProxyBase::bind(std::string ClassName, ParallelRef ExistingRef) {
  assert(!Ref.valid() && "proxy already created/bound");
  assert(ExistingRef.valid() && "binding to an invalid ref");
  Class = std::move(ClassName);
  Ref = std::move(ExistingRef);
  // A received reference addresses a foreign grain even when it happens
  // to live on this node, so dispatch stays asynchronous (loopback).
  Local = nullptr;
}

sim::Task<void> ProxyBase::invokeAsync(std::string Method, Bytes Args) {
  assert(Ref.valid() && "invoking through an uncreated proxy");
  if (Local) {
    co_await invokeLocal<void>(Method, [&Io = Local->inner(), &Method, &Args] {
      return Io.handleCall(Method, Args);
    });
    co_return;
  }
  // Root of this invocation's causal chain: every downstream span
  // (aggregation, wire, dispatch, execution) parents back to InvokeCtx.
  // 0 when tracing is off, which makes all the plumbing below vanish.
  uint64_t InvokeCtx = beginInvoke();
  co_await node().compute(calib::ProxyRemoteCallCost);
  ++Runtime.stats().RemoteAsyncCalls;
  int Factor = Runtime.om(Home).aggregationFactor(Class);
  if (Factor <= 1) {
    const ParallelRef &To = route();
    co_await Runtime.endpoint(Home).callOneWay(
        To.Node, ScooppRuntime::Port, To.Name, std::move(Method),
        std::move(Args), InvokeCtx);
    co_return;
  }
  // Method call aggregation: "(delay and) combine a series of
  // asynchronous method calls into a single aggregate call message".
  auto It = std::find_if(Pending.begin(), Pending.end(), [&](const auto &E) {
    return E.first == Method;
  });
  if (It == Pending.end())
    It = Pending.emplace(Pending.end(), Method, std::vector<BufferedCall>());
  std::vector<BufferedCall> &Buffer = It->second;
  Buffer.push_back(BufferedCall{std::move(Args), InvokeCtx});
  trace::counter(Home, "scoopp.agg_buffered_calls",
                 node().sim().now().nanosecondsCount(),
                 static_cast<int64_t>(pendingCalls()));
  if (static_cast<int>(Buffer.size()) >= Factor) {
    std::vector<BufferedCall> Calls = std::move(Buffer);
    Pending.erase(It);
    co_await shipPacked(std::move(Method), std::move(Calls));
  }
}

sim::Task<ErrorOr<Bytes>> ProxyBase::invokeSync(std::string Method,
                                                Bytes Args) {
  assert(Ref.valid() && "invoking through an uncreated proxy");
  if (Local) {
    // Nothing is ever buffered for a local object: aggregation applies to
    // remote calls only.
    assert(Pending.empty() && "aggregated calls on a local object");
    co_return co_await invokeLocal<ErrorOr<Bytes>>(
        Method, [&Io = Local->inner(), &Method, &Args] {
          return Io.handleCall(Method, Args);
        });
  }
  // Program order: everything buffered must leave before a synchronous
  // call observes state.
  if (!Pending.empty())
    co_await flush();
  uint64_t InvokeCtx = beginInvoke();
  co_await node().compute(calib::ProxyRemoteCallCost);
  ++Runtime.stats().RemoteSyncCalls;
  // callReliable applies the endpoint's retry policy; with the default
  // (disabled) policy it is exactly one plain call, same wire bytes.
  const ParallelRef &To = route();
  ErrorOr<Bytes> Result = co_await Runtime.endpoint(Home).callReliable(
      To.Node, ScooppRuntime::Port, To.Name, std::move(Method),
      std::move(Args), InvokeCtx);
  // Feed the health tracker: a transport error (even after the endpoint's
  // retries) counts against the hosting node; anything else proves it up.
  if (Result)
    Runtime.noteCallOutcome(Ref.Node, true);
  else if (ScooppRuntime::transportError(Result.error().code()))
    Runtime.noteCallOutcome(Ref.Node, false);
  else if (Result.error().code() == ErrorCode::Overloaded)
    // Admission refusals mark the node saturated so placement steers new
    // objects away while the backlog drains.
    Runtime.noteOverloaded(Ref.Node);
  co_return Result;
}

sim::Task<void> ProxyBase::flush() {
  while (!Pending.empty()) {
    std::string Method = std::move(Pending.front().first);
    std::vector<BufferedCall> Calls = std::move(Pending.front().second);
    Pending.erase(Pending.begin());
    co_await shipPacked(std::move(Method), std::move(Calls));
  }
}

sim::Task<Error> ProxyBase::destroy() {
  assert(Ref.valid() && "destroying an uncreated proxy");
  co_await flush();
  ParallelRef Victim = Ref;
  Ref = ParallelRef();
  bool WasLocal = Local != nullptr;
  if (WasLocal)
    adoptLocal(nullptr);
  Local = nullptr;
  if (WasLocal || Victim.Node == Home) {
    // Local IO: the PO destroys it directly.
    if (!Runtime.endpoint(Home).unpublish(Victim.Name))
      co_return Error(ErrorCode::UnknownObject,
                      "object already destroyed: " + Victim.Name);
    co_return Error();
  }
  // Remote IO: request destruction from the hosting node's RTS factory.
  ErrorOr<Bytes> Raw = co_await Runtime.endpoint(Home).callReliable(
      Victim.Node, ScooppRuntime::Port, ScooppRuntime::FactoryName,
      "destroy", serial::encodeValues(Victim.Name));
  if (!Raw)
    co_return Raw.error();
  co_return Error();
}

size_t ProxyBase::pendingCalls() const {
  size_t Total = 0;
  for (const auto &[Method, Calls] : Pending)
    Total += Calls.size();
  return Total;
}

sim::Task<void> ProxyBase::shipPacked(std::string Method,
                                      std::vector<BufferedCall> Calls) {
  assert(!Calls.empty() && "shipping an empty aggregate");
  ++Runtime.stats().PackedMessages;
  Runtime.stats().PackedCalls += Calls.size();
  metrics::Registry::global()
      .histogram("scoopp.pack_size_calls")
      .record(static_cast<int64_t>(Calls.size()));
  if (trace::enabled()) {
    int64_t NowNs = node().sim().now().nanosecondsCount();
    trace::instant(Home, 0, "scoopp.agg_flush", NowNs);
    trace::counter(Home, "scoopp.packed_calls", NowNs,
                   static_cast<int64_t>(Runtime.stats().PackedCalls));
  }
  const ParallelRef &To = route();
  if (Calls.size() == 1) {
    // No point wrapping a single call.
    co_await Runtime.endpoint(Home).callOneWay(
        To.Node, ScooppRuntime::Port, To.Name, std::move(Method),
        std::move(Calls.front().Args), Calls.front().Ctx);
    co_return;
  }
  // The aggregate message itself is parented at the last buffered call
  // (the one whose arrival triggered shipping); each inner call still
  // carries its own context inside the payload.
  uint64_t ShipCtx = Calls.back().Ctx;
  Bytes Payload = encodePackedCalls(Calls);
  metrics::Registry::global()
      .histogram("scoopp.packed_msg_bytes")
      .record(static_cast<int64_t>(Payload.size()));
  co_await Runtime.endpoint(Home).callOneWay(
      To.Node, ScooppRuntime::Port, To.Name, PackedMethodPrefix + Method,
      std::move(Payload), ShipCtx);
}
