//===- core/ImplAdapter.h - IO wrapper ---------------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wraps a user implementation object (IO) with the runtime behaviours the
/// paper's generated code adds:
///
///  - packed-call handling ("processN" in Fig. 7): a single message
///    carrying N aggregated invocations is unpacked and the method run N
///    times ("the parameters of the several invocations are placed in an
///    array structure that is constructed on the PO side and fetched from
///    the array on the IO side");
///  - grain-size feedback: the simulated execution time of each call is
///    fed to the node's ObjectManager's estimate for the class.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_CORE_IMPLADAPTER_H
#define PARCS_CORE_IMPLADAPTER_H

#include "core/ObjectManager.h"
#include "core/Scoopp.h"
#include "sim/Sync.h"

namespace parcs::scoopp {

/// Method-name prefix marking an aggregated message; the suffix is the
/// real method name.
inline constexpr const char *PackedMethodPrefix = "#packed:";

/// One buffered invocation inside an aggregated message: the encoded
/// arguments plus the causal id minted at the original invokeAsync (0 on
/// untraced runs).  Aggregation must not collapse causality -- each packed
/// call keeps its own context so the profiler can attribute each execution
/// to the proxy call that caused it.
struct BufferedCall {
  Bytes Args;
  uint64_t Ctx = 0;
  bool operator==(const BufferedCall &) const = default;
};

/// Set in the packed-call count word when any call carries a causal
/// context; without it the payload is the legacy ctx-free byte format, so
/// untraced wire bytes are unchanged.
inline constexpr uint32_t PackedCtxFlag = 0x80000000u;

/// Encodes N buffered invocations into one packed-call payload.
Bytes encodePackedCalls(const std::vector<BufferedCall> &Calls);

/// Decodes a packed-call payload.
ErrorOr<std::vector<BufferedCall>> decodePackedCalls(const Bytes &Payload);

/// The dispatch wrapper installed around every IO.
class ImplAdapter : public CallHandler {
public:
  ImplAdapter(ObjectManager &Om, std::string ClassName,
              std::shared_ptr<CallHandler> Inner)
      : Om(Om), ClassName(std::move(ClassName)),
        Grain(Om.grainEstimator(this->ClassName)), Inner(std::move(Inner)),
        CallLock(Om.runtime().sim()) {
    Om.noteObjectHosted();
  }
  ~ImplAdapter() override { Om.noteObjectReleased(); }

  CallHandler &inner() { return *Inner; }
  const std::string &className() const { return ClassName; }

  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override;

  /// Migration state capture passes straight through to the user IO; the
  /// adapter itself is reconstructed fresh at the destination (its lock
  /// and grain feedback are per-node runtime state, not object state).
  void saveState(serial::OutputArchive &Out) override {
    Inner->saveState(Out);
  }
  bool restoreState(serial::InputArchive &In) override {
    return Inner->restoreState(In);
  }

private:
  /// Bookkeeping after one real call on the inner IO that started at
  /// \p Start: feeds the OM's grain estimate and, on traced runs, emits a
  /// scoopp.execute span parented at \p ParentCtx.
  void noteExecuted(sim::SimTime Start, uint64_t ParentCtx);

  ObjectManager &Om;
  std::string ClassName;
  /// The OM's estimate for ClassName, looked up once.
  GrainEstimator &Grain;
  std::shared_ptr<CallHandler> Inner;
  /// Parallel objects are *active objects*: one method runs at a time,
  /// even when the endpoint's dispatch pool would allow overlap.
  sim::Mutex CallLock;
};

} // namespace parcs::scoopp

#endif // PARCS_CORE_IMPLADAPTER_H
