//===- support/Trace.h - Deterministic sim-time trace recorder --*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability subsystem: a deterministic,
/// sim-time-keyed event recorder with a Chrome trace-event / Perfetto JSON
/// exporter.  Simulated nodes map to Chrome processes (node N -> pid N+1,
/// pid 0 is the simulator itself) and registered tracks (tasks, proxies,
/// workers) map to threads, so a trace opens in Perfetto / chrome://tracing
/// as one lane per node with named sub-lanes.
///
/// Four event shapes cover the instrumented layers:
///  - complete spans: a named [start, start+dur) interval on a track,
///  - instants: a point marker on a track,
///  - counter samples: a named value-over-time series per node,
///  - async begin/end pairs: intervals that cross coroutines (RPCs, network
///    transfers), matched by a caller-chosen 64-bit id.  Both endpoints of
///    a pair must be recorded on the same node: ids are only unique per
///    node, and the exporter scopes them to the pid so equal ids on two
///    nodes never merge.
///
/// Causal contexts: any event may carry a (ctx, parent) pair of 64-bit
/// causal ids minted by mintCausalId().  Ids are process-global sequence
/// numbers, so the export doubles as a happens-before DAG: an event whose
/// Parent equals another event's Ctx was caused by it.  The ids ride RPC
/// envelopes as an optional header (see remoting/Engine) and survive
/// method-call aggregation, linking a proxy invocation on one node to the
/// execution it caused on another.  tools/parcs-prof reconstructs the DAG
/// and extracts the critical path.
///
/// Recording is off by default and near-free when disabled: every inline
/// entry point is a single load-and-branch on one global flag -- no
/// allocation, no virtual call -- so the simulator hot path keeps its
/// zero-allocation steady state.  When enabled, events go into fixed-size
/// per-node ring buffers (oldest events are overwritten once a node's ring
/// fills; async events whose partner was overwritten are exported with a
/// "truncated" marker), and all timestamps are virtual sim-time
/// nanoseconds, so two identical runs export byte-identical traces.
///
/// Enable programmatically (setEnabled / exportJson) or with
///
///   PARCS_TRACE=<file>[,cap=<events-per-node>]
///
/// which enables recording at startup and writes <file> at process exit.
/// Event and counter names must be string literals (or otherwise outlive
/// the recorder); they are stored by pointer, not copied.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_TRACE_H
#define PARCS_SUPPORT_TRACE_H

#include <cstdint>
#include <string>
#include <string_view>

namespace parcs::trace {

namespace detail {

/// Recording mode bits.  Bit 0 (ModeTrace) is full tracing -- the large
/// rings PARCS_TRACE exports; bit 1 (ModeFlight) is the flight recorder
/// -- small always-on rings kept for post-mortem dumps (see
/// telemetry/FlightRecorder).  Every disabled-path call site pays one
/// load-and-branch on this byte; the per-bit dispatch happens only once
/// an event is actually being recorded.
inline constexpr uint8_t ModeTrace = 1;
inline constexpr uint8_t ModeFlight = 2;
extern uint8_t Mode;

/// Last causal id handed out by mintCausalId(); reset() zeroes it.
extern uint64_t LastCausalId;

/// One-slot synchronous hand-off (see handoff / takeHandoff below).
extern uint64_t HandoffCtx;

void recordComplete(int Node, int Tid, const char *Name, int64_t StartNs,
                    int64_t DurNs, uint64_t Ctx, uint64_t Parent);
void recordInstant(int Node, int Tid, const char *Name, int64_t AtNs,
                   uint64_t Ctx, uint64_t Parent);
void recordCounter(int Node, const char *Name, int64_t AtNs, int64_t Value);
void recordAsync(int Node, const char *Name, int64_t AtNs, uint64_t Id,
                 bool Begin, uint64_t Ctx, uint64_t Parent);

} // namespace detail

/// True when *full* tracing is on (the flight recorder alone does not
/// count: it must not change what traced code observes, so wire formats
/// and causal plumbing key off this, not off flight mode).
inline bool enabled() { return (detail::Mode & detail::ModeTrace) != 0; }

/// A causal identity carried by an in-flight operation: Id names the
/// operation in the happens-before DAG, Parent is the Id of the operation
/// that caused it (0 = root).  POD by design -- it is embedded in hot-path
/// structures (pending-call table, network messages, aggregation buffers)
/// without allocating.
struct CausalContext {
  uint64_t Id = 0;
  uint64_t Parent = 0;
};

/// Mints the next causal id.  Deterministic (a plain process-global
/// counter) and 0 when tracing is disabled, so call sites may mint
/// unconditionally and all causal plumbing vanishes from untraced runs.
/// Keyed on full tracing only: flight-only mode must keep RPC wire bytes
/// identical to an uninstrumented run.
inline uint64_t mintCausalId() {
  return enabled() ? ++detail::LastCausalId : 0;
}

/// Publishes \p Ctx for the callee about to run *synchronously* in this
/// coroutine (sim tasks are lazy-start, so a callee's body up to its first
/// suspend runs inside the caller's co_await with no interleaving).  The
/// callee claims it with takeHandoff(), which clears the slot.  Used by
/// the RPC dispatcher to pass the restored wire context into ImplAdapter
/// without widening every handleCall signature.
inline void handoff(uint64_t Ctx) { detail::HandoffCtx = Ctx; }
inline uint64_t takeHandoff() {
  uint64_t Ctx = detail::HandoffCtx;
  detail::HandoffCtx = 0;
  return Ctx;
}

/// Turns full-trace recording on or off.  Turning it on does not clear
/// previously recorded events; call reset() for a fresh trace.
void setEnabled(bool On);

/// Turns the flight recorder on or off: a second, small set of per-node
/// rings fed by the same record calls, holding only the most recent
/// events for post-mortem dumps.  Independent of setEnabled -- flight
/// recording alone leaves enabled() false, so it never perturbs causal
/// ids or wire formats.
void setFlightRecording(bool On);

/// Sets the per-node ring capacity (events) for full tracing.  Takes
/// effect for rings created afterwards; existing rings keep their size.
void setRingCapacity(size_t Events);

/// Sets the per-node flight-ring capacity (default 512 events).
void setFlightCapacity(size_t Events);

/// Registers a named thread-track under node \p Node (-1 = the simulator
/// process) and returns its tid.  Returns 0 (the node's "main" track) when
/// tracing is disabled, so call sites may register unconditionally.
int track(int Node, std::string_view Name);

/// Number of named tracks registered since the last reset().  Gives
/// callers a per-run sequence number for lane names that is reset with
/// the registry (a process-global counter would leak across repeated
/// traced runs and break byte-identical exports).
int trackCount();

/// A [StartNs, StartNs+DurNs) span on \p Tid of node \p Node.
inline void complete(int Node, int Tid, const char *Name, int64_t StartNs,
                     int64_t DurNs) {
  if (detail::Mode)
    detail::recordComplete(Node, Tid, Name, StartNs, DurNs, 0, 0);
}

/// complete() carrying a causal identity: the span *is* DAG node \p Ctx,
/// caused by \p Parent.
inline void completeCtx(int Node, int Tid, const char *Name, int64_t StartNs,
                        int64_t DurNs, uint64_t Ctx, uint64_t Parent) {
  if (detail::Mode)
    detail::recordComplete(Node, Tid, Name, StartNs, DurNs, Ctx, Parent);
}

/// A point marker.
inline void instant(int Node, int Tid, const char *Name, int64_t AtNs) {
  if (detail::Mode)
    detail::recordInstant(Node, Tid, Name, AtNs, 0, 0);
}

/// instant() carrying a causal identity; also usable as a pure DAG edge
/// declaration (ctx gains an extra parent) for joins like reply->caller.
inline void instantCtx(int Node, int Tid, const char *Name, int64_t AtNs,
                       uint64_t Ctx, uint64_t Parent) {
  if (detail::Mode)
    detail::recordInstant(Node, Tid, Name, AtNs, Ctx, Parent);
}

/// One sample of the per-node counter series \p Name.
inline void counter(int Node, const char *Name, int64_t AtNs, int64_t Value) {
  if (detail::Mode)
    detail::recordCounter(Node, Name, AtNs, Value);
}

/// Async interval endpoints, matched by (\p Name, \p Id) within one node.
inline void asyncBegin(int Node, const char *Name, int64_t AtNs, uint64_t Id) {
  if (detail::Mode)
    detail::recordAsync(Node, Name, AtNs, Id, /*Begin=*/true, 0, 0);
}
inline void asyncEnd(int Node, const char *Name, int64_t AtNs, uint64_t Id) {
  if (detail::Mode)
    detail::recordAsync(Node, Name, AtNs, Id, /*Begin=*/false, 0, 0);
}

/// Async endpoints carrying a causal identity (conventionally on the
/// begin; the matched pair forms DAG node \p Ctx).
inline void asyncBeginCtx(int Node, const char *Name, int64_t AtNs,
                          uint64_t Id, uint64_t Ctx, uint64_t Parent) {
  if (detail::Mode)
    detail::recordAsync(Node, Name, AtNs, Id, /*Begin=*/true, Ctx, Parent);
}
inline void asyncEndCtx(int Node, const char *Name, int64_t AtNs, uint64_t Id,
                        uint64_t Ctx, uint64_t Parent) {
  if (detail::Mode)
    detail::recordAsync(Node, Name, AtNs, Id, /*Begin=*/false, Ctx, Parent);
}

/// Renders everything recorded so far as Chrome trace-event JSON
/// ({"traceEvents":[...]}).  Deterministic: depends only on the recorded
/// events, never on wall-clock time.  Async ids are exported pid-scoped
/// ("p<pid>-0x<id>") so equal local ids on different nodes never merge;
/// async events whose partner was lost to ring wrap carry
/// "truncated": true in their args.
std::string exportJson();

/// Same rendering over the flight rings: the most recent events per node
/// (a suffix of what exportJson() would contain when both modes were on).
/// Flight rings wrap silently by design -- no truncation warning is
/// printed, though async halves whose partner fell off the ring still
/// carry the "truncated" marker.
std::string exportFlightJson();

/// Discards all recorded events and tracks and rewinds the causal-id
/// counter (keeps the enabled flag).
void reset();

/// How a trace should be captured (parsed from PARCS_TRACE).
struct TraceSpec {
  std::string Path;
  size_t RingCapacity = 1 << 16;
};

/// Parses "path[,cap=N]".  Returns false (leaving \p Out untouched) for an
/// empty path, a malformed option, or a zero capacity; when \p BadToken is
/// non-null it receives the offending token for diagnostics.
bool parseTraceSpec(std::string_view Spec, TraceSpec &Out,
                    std::string *BadToken = nullptr);

} // namespace parcs::trace

#endif // PARCS_SUPPORT_TRACE_H
