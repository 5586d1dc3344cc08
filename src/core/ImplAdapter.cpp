//===- core/ImplAdapter.cpp -----------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "core/ImplAdapter.h"

#include "support/StringUtils.h"
#include "support/Trace.h"

using namespace parcs;
using namespace parcs::scoopp;

Bytes parcs::scoopp::encodePackedCalls(const std::vector<BufferedCall> &Calls) {
  bool AnyCtx = false;
  for (const BufferedCall &Call : Calls)
    AnyCtx |= Call.Ctx != 0;
  serial::OutputArchive Out;
  Out.write(static_cast<uint32_t>(Calls.size()) |
            (AnyCtx ? PackedCtxFlag : 0u));
  for (const BufferedCall &Call : Calls) {
    Out.write(static_cast<uint32_t>(Call.Args.size()));
    Out.writeRaw(Call.Args);
    if (AnyCtx)
      Out.write(Call.Ctx);
  }
  return Out.take();
}

ErrorOr<std::vector<BufferedCall>>
parcs::scoopp::decodePackedCalls(const Bytes &Payload) {
  serial::InputArchive In(Payload);
  uint32_t Count = 0;
  if (!In.read(Count))
    return Error(ErrorCode::MalformedMessage, "packed call count");
  bool HasCtx = (Count & PackedCtxFlag) != 0;
  Count &= ~PackedCtxFlag;
  std::vector<BufferedCall> Calls;
  Calls.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t Size = 0;
    BufferedCall Call;
    if (!In.read(Size) || !In.readRaw(Call.Args, Size))
      return Error(ErrorCode::MalformedMessage, "packed call body");
    if (HasCtx && !In.read(Call.Ctx))
      return Error(ErrorCode::MalformedMessage, "packed call context");
    Calls.push_back(std::move(Call));
  }
  if (!In.atEnd())
    return Error(ErrorCode::MalformedMessage, "packed call trailing bytes");
  return Calls;
}

namespace {

/// Releases a mutex on scope exit (coroutine-safe: runs on frame unwind).
struct MutexGuard {
  explicit MutexGuard(sim::Mutex &Lock) : Lock(Lock) {}
  ~MutexGuard() { Lock.unlock(); }
  sim::Mutex &Lock;
};

} // namespace

sim::Task<ErrorOr<Bytes>> ImplAdapter::handleCall(std::string_view Method,
                                                  const Bytes &Args) {
  // Claim the dispatcher's handed-off context before any suspension: Task
  // is lazy, so this runs synchronously inside the caller's co_await while
  // the slot is still ours.
  uint64_t DispatchCtx = trace::takeHandoff();
  co_await CallLock.lock();
  MutexGuard Guard(CallLock);
  if (startsWith(Method, PackedMethodPrefix)) {
    std::string Real(Method.substr(std::string_view(PackedMethodPrefix).size()));
    ErrorOr<std::vector<BufferedCall>> Calls = decodePackedCalls(Args);
    if (!Calls)
      co_return Calls.error();
    // Fig. 7's processN: fetch each invocation from the array structure
    // and run the original method.  Each buffered call executes under the
    // causal id of the proxy invocation that produced it, falling back to
    // the dispatch context for legacy ctx-free payloads.
    for (const BufferedCall &Call : *Calls) {
      sim::SimTime Start = Om.runtime().sim().now();
      ErrorOr<Bytes> Result = co_await Inner->handleCall(Real, Call.Args);
      noteExecuted(Start, Call.Ctx ? Call.Ctx : DispatchCtx);
      if (!Result)
        co_return Result.error();
    }
    co_return Bytes{};
  }
  // A single call runs in this frame: the inner IO's handler is the only
  // coroutine below it.
  sim::SimTime Start = Om.runtime().sim().now();
  ErrorOr<Bytes> Result = co_await Inner->handleCall(Method, Args);
  noteExecuted(Start, DispatchCtx);
  co_return Result;
}

void ImplAdapter::noteExecuted(sim::SimTime Start, uint64_t ParentCtx) {
  sim::SimTime End = Om.runtime().sim().now();
  Grain.note(End - Start);
  if (trace::enabled()) {
    uint64_t ExecCtx = trace::mintCausalId();
    trace::completeCtx(Om.nodeId(), 0, "scoopp.execute",
                       Start.nanosecondsCount(),
                       (End - Start).nanosecondsCount(), ExecCtx, ParentCtx);
  }
}
