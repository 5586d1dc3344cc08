//===- telemetry/TopReport.cpp - parcs_top rendering ----------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "telemetry/TopReport.h"

#include "support/Json.h"
#include "support/Metrics.h"

#include <cstdarg>
#include <cstdio>
#include <string>

namespace parcs::telemetry {

namespace {

using json::Value;

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

void appendLine(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendLine(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
  Out += '\n';
}

/// Window start in a human unit: the window grid is ns, shown as ms with
/// microsecond precision (sim runs are ms-scale).
double toMs(double Ns) { return Ns / 1e6; }

/// One percentile cell in microseconds.  An empty window reports the
/// Histogram::EmptyPercentile sentinel (-1, impossible for real samples);
/// render it as "-" rather than a negative latency.
std::string pctCell(double Ns) {
  if (Ns < 0)
    return "-";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f", Ns / 1e3);
  return Buf;
}

} // namespace

bool renderTopReport(std::string_view ExportJson, std::string &Out) {
  Out.clear();
  Value Root;
  if (!json::parse(ExportJson, Root) || !Root.isObject() ||
      !Root.field("window_ns") || !Root.field("series")) {
    Out = "parcs_top: input is not a telemetry export "
          "(expected the PARCS_TELEMETRY JSON format)\n";
    return false;
  }

  double WindowNs = Root.num("window_ns");
  appendLine(Out, "parcs_top -- cluster telemetry (window %s ms, %d nodes, "
                  "%d snapshots)",
             json::number(toMs(WindowNs)).c_str(), int(Root.num("nodes")),
             int(Root.num("snapshots")));
  if (Root.num("late_windows") > 0 || Root.num("corrupt_snapshots") > 0)
    appendLine(Out, "  dropped: %d late window contributions, %d corrupt "
                    "snapshots",
               int(Root.num("late_windows")),
               int(Root.num("corrupt_snapshots")));

  const Value *Series = Root.field("series");
  for (const auto &[Name, S] : Series->Obj) {
    bool IsHist = S.str("kind") == "histogram";
    Out += '\n';
    appendLine(Out, "%s (%s)", Name.c_str(), IsHist ? "histogram" : "counter");
    if (IsHist)
      appendLine(Out, "  %10s %8s %10s %10s %10s %10s", "win(ms)", "n",
                 "p50(us)", "p99(us)", "p999(us)", "max(us)");
    else
      appendLine(Out, "  %10s %8s %12s", "win(ms)", "n", "rate(1/ms)");
    const Value *Windows = S.field("windows");
    if (!Windows)
      continue;
    for (const Value &W : Windows->Arr) {
      double StartMs = toMs(W.num("start_ns"));
      if (IsHist)
        appendLine(Out, "  %10.3f %8d %10s %10s %10s %10s", StartMs,
                   int(W.num("n")),
                   pctCell(W.num("p50", metrics::Histogram::EmptyPercentile))
                       .c_str(),
                   pctCell(W.num("p99", metrics::Histogram::EmptyPercentile))
                       .c_str(),
                   pctCell(W.num("p999", metrics::Histogram::EmptyPercentile))
                       .c_str(),
                   pctCell(W.num("n") > 0 ? W.num("max")
                                          : metrics::Histogram::EmptyPercentile)
                       .c_str());
      else
        appendLine(Out, "  %10.3f %8d %12.3g", StartMs, int(W.num("n")),
                   WindowNs > 0 ? W.num("n") / toMs(WindowNs) : 0.0);
    }
  }

  const Value *Slos = Root.field("slos");
  if (Slos && !Slos->Arr.empty()) {
    Out += '\n';
    appendLine(Out, "SLO timeline");
    for (const Value &S : Slos->Arr) {
      appendLine(Out, "  %s  [fast-burn %d, slow-burn %d windows]",
                 std::string(S.str("spec")).c_str(),
                 int(S.num("fast_burn_windows")),
                 int(S.num("slow_burn_windows")));
      const Value *Events = S.field("events");
      if (!Events || Events->Arr.empty()) {
        appendLine(Out, "    (no breaches)");
        continue;
      }
      for (const Value &E : Events->Arr)
        appendLine(Out, "    %10.3f ms  %s", toMs(E.num("at_ns")),
                   E.str("kind") == "breach" ? "BREACH" : "recover");
    }
  }
  return true;
}

} // namespace parcs::telemetry
