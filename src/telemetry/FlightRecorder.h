//===- telemetry/FlightRecorder.h - Crash post-mortem dumps -----*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An always-on bounded recorder for post-mortem debugging: while alive,
/// every trace-instrumented event also lands in small per-node rings (the
/// trace recorder's flight mode, support/Trace.h), and when something
/// fatal happens -- a fault-plan crash fires vm::Node::crash(), or the
/// remoting engine exhausts its retries -- the recent event tail plus the
/// current metrics snapshot are dumped to a JSON file.  Chaos runs become
/// debuggable without paying for (or perturbing determinism contracts
/// with) full tracing: flight mode never mints causal ids, so RPC wire
/// bytes are identical to an uninstrumented run.
///
/// Each fatal event overwrites the dump, so after a run the file holds
/// the context of the *latest* failure; `flight.dumps` in the metrics
/// report says how many times it fired.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_TELEMETRY_FLIGHTRECORDER_H
#define PARCS_TELEMETRY_FLIGHTRECORDER_H

#include <cstdint>
#include <string>

namespace parcs::telemetry {

/// RAII: enables trace flight mode and installs the postmortem handler
/// for its lifetime.  One per process at a time (the last one wins the
/// handler slot, as support/PostMortem.h documents).
class FlightRecorder {
public:
  /// \p Path is the dump file; each node's tail is the trace flight
  /// ring (512 events).
  explicit FlightRecorder(std::string Path);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// Renders the dump body as it would be written right now (tests, and
  /// anything wanting a dump without a fatality).
  std::string dumpJson(const char *Reason, int Node, int64_t AtNs) const;

  /// Times a fatal event fired (== times the file was written).
  uint64_t dumps() const { return Dumps; }

private:
  /// Writes the dump; the postmortem handler.
  static void onFatal(void *Self, const char *Reason, int Node,
                      int64_t AtNs);

  std::string Path;
  uint64_t Dumps = 0;
};

} // namespace parcs::telemetry

#endif // PARCS_TELEMETRY_FLIGHTRECORDER_H
