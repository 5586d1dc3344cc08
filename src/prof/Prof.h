//===- prof/Prof.h - Causal critical-path analyzer ---------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline analyzer for the trace exports produced by support/Trace: loads
/// the Chrome trace-event JSON, reconstructs the happens-before DAG from
/// the causal-context annotations (args.ctx / args.parent plus rpc.link
/// edges), extracts the critical path ending at the latest-finishing DAG
/// node, and attributes every nanosecond of it to a segment class:
///
///   compute | serialize | send-queue | wire | deserialize |
///   dispatch-queue | execute
///
/// Everything runs on deterministic simulated time, so repeated analyses
/// of the same trace are byte-identical -- reports are diffable artefacts.
///
/// The DAG model:
///  - every ctx-bearing event is a node (spans have extent, ctx instants
///    are zero-width); events sharing a ctx merge into one node whose
///    parent set is the union of the events' parents;
///  - "rpc.link" instants are pure edges: they add args.parent to the
///    parent set of the node identified by args.ctx (used where a
///    causal join cannot be expressed in a single event, e.g. the serve
///    span joining the unmarshal chain, or a reply joining its call);
///  - walking backwards, the critical predecessor of a node is the
///    latest-ending candidate among (a) its declared parents and (b) the
///    latest node on the same pid that ended at or before the node's
///    start (the gap-jump rule: untagged local work keeping the CPU busy
///    shows up as a compute gap rather than a hole in the path).
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_PROF_PROF_H
#define PARCS_PROF_PROF_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace parcs::prof {

/// Attribution classes for critical-path segments.
enum class SegClass {
  Compute,
  Serialize,
  SendQueue,
  Wire,
  Deserialize,
  DispatchQueue,
  Execute,
};

/// Printable name ("compute", "send-queue", ...).
const char *segClassName(SegClass C);

/// Maps a span name to its segment class.  Unknown names are Compute: a
/// span we cannot classify was still simulated work on some node.
SegClass classify(const std::string &Name);

/// One node of the happens-before DAG (a ctx-bearing span or instant
/// after merging events that share a ctx).
struct DagNode {
  std::string Name;
  int Pid = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint64_t Ctx = 0;
  /// Declared predecessors (args.parent of the merged events plus any
  /// rpc.link edges).  Sorted, deduplicated.
  std::vector<uint64_t> Parents;
  /// True when either half of an async pair was lost to ring-buffer wrap:
  /// the extent is a lower bound, not the truth.
  bool Truncated = false;
};

/// A parsed trace: the DAG plus the overall event-time window.
struct TraceData {
  std::vector<DagNode> Nodes;
  /// Window over the DAG nodes ([first start, last end]); the denominator
  /// of the coverage figure.
  int64_t RunStartNs = 0;
  int64_t RunEndNs = 0;
  /// Total events seen in the export (spans, instants, counters, ...).
  size_t EventCount = 0;
};

/// Parses a Chrome trace-event JSON export (the exact shape
/// trace::exportJson emits).  Async begin/end halves are matched through
/// their pid-scoped ids; halves marked truncated produce truncated nodes.
ErrorOr<TraceData> loadTrace(std::string_view Json);

/// One attributed slice of the critical path, in increasing time order.
/// Gap segments (time the path crosses without a covering node) carry the
/// name "<gap>" and class Compute.
struct Segment {
  std::string Name;
  SegClass Class = SegClass::Compute;
  int Pid = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int64_t durationNs() const { return EndNs - StartNs; }
};

/// The extracted critical path with per-class attribution.
struct Analysis {
  int64_t RunStartNs = 0;
  int64_t RunEndNs = 0;
  int64_t runNs() const { return RunEndNs - RunStartNs; }
  /// Sum of segment durations (== the covered portion of the run window).
  int64_t CriticalNs = 0;
  std::vector<Segment> Segments;
  /// (class, total ns) for every class, fixed order (enum order), zeros
  /// included -- stable layout for diffing.
  std::vector<std::pair<SegClass, int64_t>> ByClass;
  /// CriticalNs / runNs, in [0, 1]; 0 when the window is empty.
  double coverage() const;
  /// True when any node on the path was truncated at ring wrap.
  bool SawTruncated = false;
};

/// Extracts the critical path of \p Trace.  Deterministic: equal inputs
/// produce equal outputs, byte for byte.
Analysis analyze(const TraceData &Trace);

/// Renders the human-readable report (per-class table, then the path's
/// segments newest-last).  \p MaxSegments truncates the segment listing
/// (0 = all).
std::string textReport(const Analysis &A, size_t MaxSegments = 0);

/// Renders a collapsed-stack flamegraph ("parcs;<class>;<name> <ns>" per
/// line, sorted), foldable by the usual flamegraph.pl / speedscope tools.
std::string flamegraph(const Analysis &A);

} // namespace parcs::prof

#endif // PARCS_PROF_PROF_H
