//===- model/Legs.cpp - Profiler attribution as sweep data points ---------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "model/Legs.h"

#include "support/File.h"

namespace parcs::model {

DataPoint pointFromProfAnalysis(const prof::Analysis &A,
                                const NumberMap &Params) {
  DataPoint Point;
  Point.Params = Params;
  for (const auto &[Class, Ns] : A.ByClass)
    Point.Metrics[std::string(LegPrefix) + prof::segClassName(Class)] =
        double(Ns);
  Point.Metrics[std::string(LegPrefix) + "total"] = double(A.CriticalNs);
  return Point;
}

ErrorOr<DataPoint> pointFromTraceFile(const std::string &Path,
                                      const NumberMap &Params) {
  ErrorOr<std::string> Text = readFile(Path);
  if (!Text)
    return Text.error();
  ErrorOr<prof::TraceData> Trace = prof::loadTrace(*Text);
  if (!Trace)
    return Trace.error();
  return pointFromProfAnalysis(prof::analyze(*Trace), Params);
}

} // namespace parcs::model
