//===- tools/parcs_prof/Main.cpp - Critical-path profiler CLI -------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// parcs-prof: loads a PARCS_TRACE export, reconstructs the happens-before
// DAG from the causal-context annotations, and prints the critical path
// with per-class sim-time attribution.  Optionally writes a
// collapsed-stack flamegraph file (flamegraph.pl / speedscope input).
//
//   parcs-prof trace.json
//   parcs-prof trace.json --top 40 --flamegraph trace.folded
//
// Output is deterministic: the same trace always produces the same bytes.
//
//===----------------------------------------------------------------------===//

#include "prof/Prof.h"
#include "support/File.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <string>

using namespace parcs;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> [--top N] [--flamegraph <out>]\n"
               "\n"
               "  <trace.json>       a PARCS_TRACE / trace::exportJson file\n"
               "  --top N            truncate the segment listing after N entries\n"
               "  --flamegraph FILE  also write collapsed stacks to FILE\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string TracePath;
  std::string FlamePath;
  size_t Top = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--top" && I + 1 < Argc) {
      if (!parseInt(Argv[++I], Top))
        return usage(Argv[0]);
    } else if (Arg == "--flamegraph" && I + 1 < Argc) {
      FlamePath = Argv[++I];
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "parcs-prof: unknown option '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    } else if (TracePath.empty()) {
      TracePath = std::move(Arg);
    } else {
      std::fprintf(stderr, "parcs-prof: extra positional '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }
  if (TracePath.empty())
    return usage(Argv[0]);

  ErrorOr<std::string> Text = readFile(TracePath);
  ErrorOr<prof::TraceData> Trace =
      Text ? prof::loadTrace(*Text) : ErrorOr<prof::TraceData>(Text.error());
  if (!Trace) {
    std::fprintf(stderr, "parcs-prof: %s\n", Trace.error().str().c_str());
    return 1;
  }
  if (Trace->Nodes.empty()) {
    std::fprintf(stderr,
                 "parcs-prof: %s has no causal-context events; run the "
                 "workload with PARCS_TRACE set and tracing-aware builds\n",
                 TracePath.c_str());
    return 1;
  }

  prof::Analysis A = prof::analyze(*Trace);
  std::fputs(prof::textReport(A, Top).c_str(), stdout);

  if (!FlamePath.empty()) {
    if (Error E = writeFile(FlamePath, prof::flamegraph(A))) {
      std::fprintf(stderr, "parcs-prof: %s\n", E.message().c_str());
      return 1;
    }
    std::printf("\nflamegraph: wrote %s\n", FlamePath.c_str());
  }
  return 0;
}
