//===- telemetry/FlightRecorder.cpp - Crash post-mortem dumps -------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include "support/File.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/PostMortem.h"
#include "support/Trace.h"

#include <cstdio>

namespace parcs::telemetry {

FlightRecorder::FlightRecorder(std::string Path) : Path(std::move(Path)) {
  trace::setFlightRecording(true);
  postmortem::setHandler(&FlightRecorder::onFatal, this);
}

FlightRecorder::~FlightRecorder() {
  postmortem::clearHandler(this);
  trace::setFlightRecording(false);
  metrics::Registry::global().counter("flight.dumps").add(Dumps);
}

void FlightRecorder::onFatal(void *Self, const char *Reason, int Node,
                             int64_t AtNs) {
  FlightRecorder &R = *static_cast<FlightRecorder *>(Self);
  ++R.Dumps;
  if (Error E = writeFile(R.Path, R.dumpJson(Reason, Node, AtNs)))
    std::fprintf(stderr, "[parcs:flight] %s\n", E.message().c_str());
}

std::string FlightRecorder::dumpJson(const char *Reason, int Node,
                                     int64_t AtNs) const {
  std::string Out = "{\n  \"reason\": ";
  json::appendString(Out, Reason);
  Out += ",\n  \"node\": " + std::to_string(Node);
  Out += ",\n  \"at_ns\": " + std::to_string(AtNs);
  // Both sub-documents are complete JSON objects rendered by their own
  // deterministic exporters, embedded verbatim.
  Out += ",\n  \"trace\": ";
  Out += trace::exportFlightJson();
  Out += ",\n  \"metrics\": ";
  Out += metrics::Registry::global().jsonReport();
  Out += "\n}\n";
  return Out;
}

} // namespace parcs::telemetry
