//===- support/TelemetrySink.h - Live-series recording hook -----*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recording side of the live telemetry plane, placed in support so
/// instrumented layers (remoting, vm, apps) can feed windowed series
/// without linking against src/telemetry.  telemetry::Plane installs a
/// Sink at construction; until then every call is one load-and-branch on
/// a null pointer, preserving the hot paths' disabled-cost budget.
///
/// Series names must be string literals (or otherwise outlive the run);
/// they are passed by pointer, never copied on the recording path.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_TELEMETRYSINK_H
#define PARCS_SUPPORT_TELEMETRYSINK_H

#include <cstdint>

namespace parcs::telemetry {

/// Receives live samples from instrumented layers.  Implemented by
/// telemetry::Plane; the support layer only defines the interface.
class Sink {
public:
  virtual ~Sink();

  /// \p N events of series \p Series on node \p Node at sim-time \p AtNs.
  virtual void count(int Node, const char *Series, int64_t AtNs,
                     uint64_t N) = 0;

  /// One distribution sample (latency ns, size bytes, ...).
  virtual void record(int Node, const char *Series, int64_t AtNs,
                      int64_t Value) = 0;
};

namespace detail {

/// The one pointer-load-and-branch every disabled call site pays.
extern Sink *ActiveSink;

} // namespace detail

/// Installs (or, with nullptr, removes) the process-wide sink.  Returns
/// the previous sink so tests can restore it.
Sink *setSink(Sink *S);

/// Counts \p N events of \p Series on \p Node at sim-time \p AtNs.
inline void count(int Node, const char *Series, int64_t AtNs,
                  uint64_t N = 1) {
  if (detail::ActiveSink)
    detail::ActiveSink->count(Node, Series, AtNs, N);
}

/// Records one distribution sample of \p Series.
inline void record(int Node, const char *Series, int64_t AtNs,
                   int64_t Value) {
  if (detail::ActiveSink)
    detail::ActiveSink->record(Node, Series, AtNs, Value);
}

} // namespace parcs::telemetry

#endif // PARCS_SUPPORT_TELEMETRYSINK_H
