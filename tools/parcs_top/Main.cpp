//===- tools/parcs_top/Main.cpp - Telemetry export viewer -----------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Renders the JSON time-series a PARCS_TELEMETRY run exports as per-window
// percentile tables plus the SLO breach timeline:
//
//   parcs_top telemetry.json
//   some_run | parcs_top -        # read the export from stdin
//
//===----------------------------------------------------------------------===//

#include "support/File.h"
#include "telemetry/TopReport.h"

#include <cstdio>
#include <string>

int main(int Argc, char **Argv) {
  if (Argc != 2 || std::string_view(Argv[1]) == "--help" ||
      std::string_view(Argv[1]) == "-h") {
    std::fprintf(stderr,
                 "usage: parcs_top <telemetry.json | ->\n"
                 "\n"
                 "Renders a PARCS_TELEMETRY export as per-window p50/p99/p999\n"
                 "tables and the SLO breach timeline.  '-' reads stdin.\n");
    return 2;
  }

  std::string Body;
  if (std::string_view(Argv[1]) == "-") {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), stdin)) > 0)
      Body.append(Buf, N);
    if (std::ferror(stdin)) {
      std::fprintf(stderr, "parcs_top: error reading stdin\n");
      return 1;
    }
  } else {
    parcs::ErrorOr<std::string> Text = parcs::readFile(Argv[1]);
    if (!Text) {
      std::fprintf(stderr, "parcs_top: %s\n", Text.error().message().c_str());
      return 1;
    }
    Body = Text.take();
  }

  std::string Report;
  bool Ok = parcs::telemetry::renderTopReport(Body, Report);
  std::fputs(Report.c_str(), Ok ? stdout : stderr);
  return Ok ? 0 : 1;
}
