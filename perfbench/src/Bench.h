//===- perfbench/src/Bench.h - Whole-program benchmark ---------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the whole-program benchmark: the workload
/// interface (one complete simulation per iteration, checked against a
/// sequential reference), exact per-iteration counts read from the metrics
/// registry, the span recorder of the traced run, and the stacked layer
/// probes.  See perfbench/README.md for what each piece measures.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_PERFBENCH_BENCH_H
#define PARCS_PERFBENCH_BENCH_H

#include "remoting/Engine.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host CPU time of the calling thread, in ns.  Every timing the benchmark
/// reports uses this clock: the runtime is single-threaded, so it equals
/// wall time on an idle machine but leaves out the time a shared machine
/// gives to other processes, which would otherwise dominate run-to-run
/// spread.
int64_t cpuNowNs();

/// The contention reference: fixed host work that shares no code with the
/// runtime (branchy integer work over an ordered map, a large-footprint
/// mix of library code, and ray/sphere-style floating point).  Returns
/// its CPU ms.  On a shared machine, neighbours slow every process on a
/// core by up to ~1.5x for seconds at a time; the reference slows with the
/// work timed next to it, so their ratio holds far stiller than raw times.
double referenceMs();

/// Reported times are scaled to the reference's quiet-machine speed:
/// raw CPU time / referenceMs() x ReferenceNominalMs, a fixed scale close
/// to the reference's CPU time on a quiet machine of the kind the
/// benchmark was defined on.
constexpr double ReferenceNominalMs = 5.0;

/// \p Raw CPU time (in any unit) normalised by a reference run of \p RefMs;
/// the result keeps Raw's unit.
inline double normalise(double Raw, double RefMs) {
  return Raw / RefMs * ReferenceNominalMs;
}

//===----------------------------------------------------------------------===//
// Exact counts
//===----------------------------------------------------------------------===//

/// Every counter and gauge of metrics::Registry::global() by name.
/// Endpoints, fabrics and simulators fold their counters on destruction,
/// so a snapshot taken after teardown covers the whole simulation.
using Counts = std::map<std::string, double>;

Counts snapshotCounts();

/// After - Before for counters; gauges (running maxima) keep After.
Counts countDelta(const Counts &After, const Counts &Before);

/// \p C[Name], 0 when absent.
double count(const Counts &C, std::string_view Name);

/// Sum over every "rpc.<stack>.<Suffix>" counter (one per messaging stack).
double rpcCount(const Counts &C, std::string_view Suffix);

/// SCOOPP invocations: remote sync + remote async + local calls.
double invocations(const Counts &C);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// What one iteration produced.
struct IterationResult {
  /// Hash of every simulated result (virtual times, checksums, call
  /// outcomes); the caller mixes in the exact counts.
  uint64_t Digest = 0;
  /// Why the output check failed; empty when the output is right.
  std::string Failure;
};

/// Shapes the layer probes copy from a workload.
struct ProbeShape {
  /// Bytes of one intra-grain call's argument buffer.
  size_t LocalArgBytes = 16;
  /// The retry policy the workload's runtime installs on its endpoints
  /// (it adds a deadline timer and a dedup id to every call).
  parcs::remoting::RetryPolicy Retry;
};

class Workload {
public:
  virtual ~Workload();

  /// True when the workload's input is drawn from the seed.
  virtual bool usesSeed() const = 0;
  /// Builds inputs and the sequential reference (set-up before warm-up).
  virtual void prepare(uint64_t Seed, bool Smoke) = 0;
  /// Builds, runs and tears down one complete simulation, then checks it.
  virtual IterationResult iterate() = 0;
  /// Checks the exact counts of the iteration just run (read after its
  /// teardown); returns why they are wrong, "" when they are right.
  virtual std::string checkCounts(const Counts &Iter) const {
    (void)Iter;
    return "";
  }
  /// Makes the checker expect a wrong answer, so every later iteration
  /// fails (the self-test of failure counting).
  virtual void corruptExpected() = 0;
  /// One-line description of the configuration, for the run record.
  virtual std::string describe() const = 0;

  /// Host ms of the application's own compute, measured outside the
  /// runtime: \p Units units of work (rendered lines, divisibility tests)
  /// of which an iteration performs \p UnitCounter (an exact count).
  /// An empty Metric means the workload has no application compute.
  struct AppProbe {
    const char *Metric = "";
    double Ms = 0;
    double Units = 0;
    const char *UnitCounter = "";
  };
  virtual AppProbe probeApp() = 0;
  virtual ProbeShape probeShape() const { return {}; }
};

std::unique_ptr<Workload> makeWorkload(std::string_view Name);
/// The workload names makeWorkload accepts.
const std::vector<std::string> &workloadNames();

//===----------------------------------------------------------------------===//
// Spans (traced run only)
//===----------------------------------------------------------------------===//

/// Host-time spans (cpuNowNs) recorded around the benchmark's own calls
/// into the runtime: name, start, end, parent.  Kept in memory; written
/// at exit.
class SpanRecorder {
public:
  /// Opens a span under the innermost open one; returns its id.
  int begin(std::string Name);
  /// Closes span \p Id (the innermost open span); returns its length (ns).
  int64_t end(int Id);

  /// Writes every span as a JSON array; false on I/O error.
  bool write(const std::string &Path) const;

private:
  struct Span {
    std::string Name;
    int64_t StartNs = 0;
    int64_t EndNs = -1;
    int Parent = -1;
  };
  std::vector<Span> Spans;
  std::vector<int> Open;
};

//===----------------------------------------------------------------------===//
// Layer probes
//===----------------------------------------------------------------------===//

/// Host ns per operation of each layer, measured by stacked probes that
/// drive one layer's public entry points with the workload's op mix, the
/// layers below live and the layers above absent.  Total is the probe's
/// own time per op; Self subtracts the lower layers' self time, scaled by
/// the exact counts the probe caused.
struct LayerCosts {
  struct Cost {
    double Total = 0;
    double Self = 0;
  };
  Cost SimEvent, VmItem, NetMsg, SerialMsg, RemotingCall, RemotingReject,
      CoreRemoteCall, CoreLocalCall, CoreCreate;
  /// One event in a probe's own shallow queue: what the probes above sim
  /// subtract per event.  SimEvent is costed at the workload's queue depth.
  double ProbeSimEventNs = 0;
};

/// Runs every probe the iteration counts \p Iter call for (a probe whose
/// operation the workload never performs is skipped and reports 0).
/// \p Budget is the host time to spend; each probe runs repeated batches
/// inside a span and reports the median batch.
LayerCosts runProbes(const Counts &Iter, const ProbeShape &Shape,
                     double BudgetSeconds, SpanRecorder &Spans);

} // namespace perfbench

#endif // PARCS_PERFBENCH_BENCH_H
