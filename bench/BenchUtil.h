//===- bench/BenchUtil.h - Table printing helpers ---------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers shared by the per-figure benchmark binaries: aligned
/// table printing and the message-size grid of the paper's Fig. 8 sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_BENCH_BENCHUTIL_H
#define PARCS_BENCH_BENCHUTIL_H

#include "model/DataSet.h"
#include "prof/Prof.h"
#include "support/File.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace parcs::bench {

/// The one blessed wall-clock in the tree (this header is on the
/// determinism-wall-clock allowlist).  Benchmarks measure real elapsed time
/// through it; everything else runs on virtual sim time, so wall time can
/// never leak into simulated behaviour or exported artefacts.
class WallTimer {
public:
  WallTimer() : Start(std::chrono::steady_clock::now()) {}

  /// Seconds since construction (or the last restart()).
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  }

  void restart() { Start = std::chrono::steady_clock::now(); }

private:
  std::chrono::steady_clock::time_point Start;
};

/// True when --critical-path was passed: the bench should re-run one
/// representative configuration with tracing on and print the causal
/// critical-path report (see criticalPathReport).
inline bool wantCriticalPath(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--critical-path") == 0)
      return true;
  return false;
}

/// RAII: turns the global trace recorder on over one traced re-run,
/// restoring the disabled+empty state afterwards so the bench's normal
/// (untraced, deterministic) measurements are unaffected.
struct TracedRunScope {
  TracedRunScope() {
    trace::reset();
    trace::setEnabled(true);
  }
  ~TracedRunScope() {
    trace::setEnabled(false);
    trace::reset();
  }
};

/// Analyzes the events recorded so far (inside a TracedRunScope) and
/// prints the parcs-prof report inline.  Returns false (and says why)
/// when the trace held no causal-context events.
inline bool criticalPathReport(const char *Label, size_t MaxSegments = 30) {
  ErrorOr<prof::TraceData> Trace = prof::loadTrace(trace::exportJson());
  if (!Trace) {
    std::printf("critical-path: %s\n", Trace.error().str().c_str());
    return false;
  }
  if (Trace->Nodes.empty()) {
    std::printf("critical-path: trace has no causal-context events\n");
    return false;
  }
  prof::Analysis A = prof::analyze(*Trace);
  std::printf("\n---- critical path: %s ----\n%s", Label,
              prof::textReport(A, MaxSegments).c_str());
  return true;
}

/// The value of `--sweep-out <file>` ("" when absent): where the bench
/// should write its measurements as a parcs-model sweep file.
inline std::string sweepOutPath(int Argc, char **Argv) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--sweep-out") == 0)
      return Argv[I + 1];
  return {};
}

/// Collects bench measurements as parcs-model data points and writes the
/// sweep file `parcs-model fit` ingests.  The machine note records the
/// toolchain (never wall-clock time: sweep files must be byte-stable
/// artefacts of the measured values alone).
class SweepWriter {
public:
  explicit SweepWriter(const char *Bench) {
    Data.Bench = Bench;
    Data.Machine = "cxx " __VERSION__;
  }

  /// Records one measurement; repeats are simply repeated calls with the
  /// same params.
  void point(
      std::initializer_list<std::pair<const char *, double>> Params,
      std::initializer_list<std::pair<const char *, double>> Metrics) {
    model::DataPoint P;
    for (const auto &[Name, Value] : Params)
      P.Params[Name] = Value;
    for (const auto &[Name, Value] : Metrics)
      P.Metrics[Name] = Value;
    Data.Points.push_back(std::move(P));
  }

  /// Writes the sweep to \p Path (no-op on "").  Prints where it went;
  /// complains on stderr and returns false when the file can't be written.
  bool write(const std::string &Path) const {
    if (Path.empty())
      return true;
    if (Error E = writeFile(Path, model::writeSweepJson(Data))) {
      std::fprintf(stderr, "bench: %s\n", E.message().c_str());
      return false;
    }
    std::printf("sweep: wrote %s (%zu points)\n", Path.c_str(),
                Data.Points.size());
    return true;
  }

private:
  model::DataSet Data;
};

/// Prints a banner naming the experiment and the paper artefact.
inline void banner(const char *Id, const char *Title) {
  std::printf("\n==== %s: %s ====\n", Id, Title);
}

/// Prints one row of right-aligned cells.
inline void row(const std::vector<std::string> &Cells, int Width = 14) {
  for (const std::string &Cell : Cells)
    std::printf("%*s", Width, Cell.c_str());
  std::printf("\n");
}

inline std::string fmt(double Value, int Precision = 2) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Precision, Value);
  return Buffer;
}

/// The paper's Fig. 8 x-axis: message sizes from tens of bytes to 1 MB
/// (log-spaced).
inline std::vector<size_t> fig8MessageSizes() {
  return {64,        256,        1024,       4096,      16384,
          65536,     262144,     1048576};
}

inline std::string sizeLabel(size_t Bytes) {
  if (Bytes >= 1024 * 1024)
    return std::to_string(Bytes / (1024 * 1024)) + "MB";
  if (Bytes >= 1024)
    return std::to_string(Bytes / 1024) + "KB";
  return std::to_string(Bytes) + "B";
}

} // namespace parcs::bench

#endif // PARCS_BENCH_BENCHUTIL_H
