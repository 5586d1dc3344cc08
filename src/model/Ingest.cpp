//===- model/Ingest.cpp - Sweep and telemetry-export ingestion ------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "model/Ingest.h"

#include "support/Json.h"

namespace parcs::model {

namespace {

using json::Value;

Error malformed(const std::string &What) {
  return Error(ErrorCode::MalformedMessage, What);
}

/// Copies the numeric members of \p Obj into \p Out (non-numbers are a
/// format error: params and metrics are numbers by construction).
bool numberMap(const Value &Obj, NumberMap &Out) {
  if (!Obj.isObject())
    return false;
  for (const auto &[Name, Member] : Obj.Obj) {
    if (!Member.isNumber())
      return false;
    Out[Name] = Member.Num;
  }
  return true;
}

} // namespace

ErrorOr<DataSet> parseSweepJson(std::string_view Json) {
  Value Root;
  if (!json::parse(Json, Root) || !Root.isObject())
    return malformed("sweep file is not a JSON object");
  const Value *Points = Root.field("points");
  if (!Points || !Points->isArray())
    return malformed("sweep file has no \"points\" array");
  DataSet Out;
  Out.Bench = std::string(Root.str("bench"));
  Out.Machine = std::string(Root.str("machine"));
  for (const Value &P : Points->Arr) {
    const Value *Params = P.field("params");
    const Value *Metrics = P.field("metrics");
    DataPoint Point;
    if (!Params || !Metrics || !numberMap(*Params, Point.Params) ||
        !numberMap(*Metrics, Point.Metrics))
      return malformed("sweep point needs numeric \"params\" and "
                       "\"metrics\" objects");
    Out.Points.push_back(std::move(Point));
  }
  return Out;
}

ErrorOr<DataSet> pointsFromTelemetryExport(std::string_view Json) {
  Value Root;
  if (!json::parse(Json, Root) || !Root.isObject() ||
      !Root.field("window_ns") || !Root.field("series"))
    return malformed("not a telemetry export (no window_ns/series)");
  double WindowNs = Root.num("window_ns");
  DataPoint Point;
  Point.Params["nodes"] = Root.num("nodes");
  const Value *Series = Root.field("series");
  for (const auto &[Name, S] : Series->Obj) {
    const Value *Windows = S.field("windows");
    if (!Windows || !Windows->isArray())
      continue;
    bool IsHist = S.str("kind") == "histogram";
    double N = 0, WinCount = 0;
    double P50 = 0, P99 = 0, P999 = 0, Mean = 0;
    for (const Value &W : Windows->Arr) {
      double Wn = W.num("n");
      N += Wn;
      WinCount += 1;
      if (IsHist && Wn > 0) {
        P50 += Wn * W.num("p50");
        P99 += Wn * W.num("p99");
        P999 += Wn * W.num("p999");
        Mean += Wn * W.num("mean");
      }
    }
    if (N <= 0)
      continue;
    Point.Metrics[Name + ".n"] = N;
    if (WindowNs > 0 && WinCount > 0)
      Point.Metrics[Name + ".rate_per_s"] =
          N / (WinCount * WindowNs / 1e9);
    if (IsHist) {
      Point.Metrics[Name + ".p50"] = P50 / N;
      Point.Metrics[Name + ".p99"] = P99 / N;
      Point.Metrics[Name + ".p999"] = P999 / N;
      Point.Metrics[Name + ".mean"] = Mean / N;
    }
  }
  DataSet Out;
  Out.Bench = "telemetry-export";
  Out.Points.push_back(std::move(Point));
  return Out;
}

ErrorOr<DataSet> loadSweep(std::string_view Json, const std::string &Path) {
  Value Root;
  if (!json::parse(Json, Root) || !Root.isObject())
    return malformed(Path + ": not a JSON object");
  if (Root.field("points"))
    return parseSweepJson(Json);
  if (Root.field("window_ns") && Root.field("series"))
    return pointsFromTelemetryExport(Json);
  return malformed(Path + ": neither a sweep file (\"points\") nor a "
                          "telemetry export (\"series\")");
}

} // namespace parcs::model
