//===- core/Proxy.h - PO base class ------------------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ProxyBase is the PO (proxy object) of the paper: "A PO represents a
/// local or a remote parallel object and has the same interface as the
/// object it represents.  It transparently replaces remote parallel
/// objects and forwards all method invocations to the remote parallel
/// object implementation."  Proxy classes generated by parcgen derive from
/// it and add one typed method per user method.
///
/// create() reproduces Fig. 5's generated constructor: consult the OM;
/// either create the IO locally (object agglomeration, call d in Fig. 3)
/// or ask the OM for a host and request creation from that node's remote
/// factory (calls c in Fig. 3).
///
/// invokeAsync() reproduces Fig. 4/7: an asynchronous (delegate-style)
/// invocation that, under method-call aggregation, is buffered and later
/// shipped as one packed message.
///
/// invokeLocal() is the intra-grain call of an agglomerated object: a
/// plain synchronous call of the IO's typed method, with no marshalling.
/// Typed proxies use it for the methods they can call directly; the
/// byte-level invokeAsync()/invokeSync() use it when their object is
/// local.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_CORE_PROXY_H
#define PARCS_CORE_PROXY_H

#include "core/ImplAdapter.h"
#include "core/Scoopp.h"
#include "vm/Calibration.h"

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace parcs::scoopp {

namespace detail {
/// The failure an intra-grain call's result carries, or null: typed IO
/// methods return a plain value, an Error or an ErrorOr.
inline const Error *failureOf(const Error &Result) {
  return Result ? &Result : nullptr;
}
template <typename T> const Error *failureOf(const ErrorOr<T> &Result) {
  return Result ? nullptr : &Result.error();
}
template <typename T> const Error *failureOf(const T &) { return nullptr; }
} // namespace detail

/// Base of all generated proxy (PO) classes.
class ProxyBase {
public:
  /// A proxy living on \p HomeNode (the node whose OM it consults and
  /// whose endpoint it calls through).
  ProxyBase(ScooppRuntime &Runtime, int HomeNode);
  virtual ~ProxyBase();

  ScooppRuntime &runtime() { return Runtime; }
  vm::Node &node();

  /// True once create()/bind() succeeded.
  bool created() const { return Ref.valid(); }
  /// True when the implementation lives on the home node and calls are
  /// intra-grain.
  bool isLocal() const { return Local != nullptr; }
  const ParallelRef &ref() const { return Ref; }
  const std::string &className() const { return Class; }

  /// The generated constructor body: creates the IO (locally or remotely)
  /// per the OM's grain/placement decisions.
  sim::Task<Error> create(std::string ClassName);

  /// Attaches this proxy to an existing parallel object (a received
  /// ParallelRef).  Calls become remote unless the ref is home-hosted.
  void bind(std::string ClassName, ParallelRef ExistingRef);

  /// Asynchronous (void) method invocation; may be buffered for
  /// aggregation.  Completion of the returned task means "accepted", not
  /// "executed" (fire-and-forget, like a delegate BeginInvoke without
  /// EndInvoke).
  sim::Task<void> invokeAsync(std::string Method, Bytes Args);

  /// Synchronous method invocation (a value is returned).  Flushes any
  /// buffered calls for this object first, preserving program order.
  sim::Task<ErrorOr<Bytes>> invokeSync(std::string Method, Bytes Args);

  /// Typed wrapper over invokeSync.
  template <typename Ret, typename... Args>
  sim::Task<ErrorOr<Ret>> invokeSyncTyped(std::string Method,
                                          const Args &...CallArgs) {
    return invokeSyncTypedImpl<Ret>(this, std::move(Method),
                                    serial::encodeValues(CallArgs...));
  }

  /// Ships any buffered aggregated calls immediately.
  sim::Task<void> flush();

  /// Destroys the implementation object (the ParC++ semantics the paper
  /// contrasts with .Net-managed lifetime: "the PO always destroys a
  /// local IO; non-local objects are destroyed by the RTS, upon a request
  /// from the PO").  Buffered calls are flushed first; afterwards the
  /// proxy is unusable and other references to the object fault.
  sim::Task<Error> destroy();

  /// Buffered (not yet shipped) aggregated calls.
  size_t pendingCalls() const;

protected:
  /// Called with the inner IO when create() agglomerates the object, and
  /// with null when destroy() releases it.  A typed proxy checks the IO's
  /// class here, once, so that its direct calls need no per-call check.
  virtual void adoptLocal(CallHandler *Io) { (void)Io; }

  // PARCS_HOT_BEGIN(intra-grain-call): an agglomerated object's calls.

  /// The intra-grain call ("its subsequent (asynchronous parallel) method
  /// invocations are actually executed synchronously and serially", call b
  /// in Fig. 3): charges ProxyLocalCallCost, counts the call and hands its
  /// causal id to the local IO, whose adapter admits it (the object's lock)
  /// and times \p Run -- a call on the IO that returns a sim::Task -- in
  /// this frame.  A synchronous call (\p Ret an ErrorOr) returns Run's
  /// result; an asynchronous one (\p Ret void) logs a failure under
  /// \p Method's name, as invokeAsync does.  Requires isLocal().
  template <typename Ret, typename Body>
  sim::Task<Ret> invokeLocal(std::string_view Method, Body Run) {
    assert(Local && "intra-grain call without a local IO");
    uint64_t InvokeCtx = beginInvoke();
    co_await node().compute(calib::ProxyLocalCallCost);
    ++Runtime.stats().LocalCalls;
    if (InvokeCtx)
      trace::handoff(InvokeCtx);
    ImplAdapter::Admission Admitted = co_await Local->admit();
    auto Result = co_await Local->timed(Admitted.Ctx, Run());
    if constexpr (std::is_void_v<Ret>) {
      if (const Error *Failure = detail::failureOf(Result))
        noteLocalAsyncFailure(Method, *Failure);
      co_return;
    } else {
      co_return std::move(Result);
    }
  }

  // PARCS_HOT_END

private:
  template <typename Ret>
  static sim::Task<ErrorOr<Ret>>
  invokeSyncTypedImpl(ProxyBase *Self, std::string Method, Bytes Encoded) {
    co_return serial::decodeResult<Ret>(
        co_await Self->invokeSync(std::move(Method), std::move(Encoded)));
  }

  /// Mints the invocation's causal id (0 on untraced runs), the root of
  /// every span the call causes, and marks it with a scoopp.invoke instant.
  uint64_t beginInvoke();
  void noteLocalAsyncFailure(std::string_view Method, const Error &Failure);
  sim::Task<void> shipPacked(std::string Method,
                             std::vector<BufferedCall> Calls);
  /// The object's current home: absorbs a migration into Ref, then
  /// returns it.
  const ParallelRef &route();
  /// Trace/metrics record of one agglomerate-vs-parallel grain decision.
  void recordCreateDecision(bool Agglomerated);

  ScooppRuntime &Runtime;
  int Home;
  std::string Class;
  ParallelRef Ref;
  /// Non-null when the IO is agglomerated (the intra-grain path).
  std::shared_ptr<ImplAdapter> Local;
  /// Aggregation buffers, one per method with calls in insertion order,
  /// and the methods in first-buffered order, so flush preserves program
  /// order across methods.  Each buffered call keeps the causal id minted
  /// at its invokeAsync, so aggregation never collapses causality.
  std::vector<std::pair<std::string, std::vector<BufferedCall>>> Pending;
};

} // namespace parcs::scoopp

#endif // PARCS_CORE_PROXY_H
