//===- model/DataSet.cpp - Sweep data points ------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "model/DataSet.h"

#include "support/Json.h"

#include <algorithm>
#include <set>

namespace parcs::model {

namespace {

void appendMap(std::string &Out, const NumberMap &M) {
  Out += '{';
  bool First = true;
  for (const auto &[Name, Value] : M) {
    if (!First)
      Out += ", ";
    First = false;
    json::appendString(Out, Name);
    Out += ": ";
    Out += json::number(Value);
  }
  Out += '}';
}

} // namespace

void DataSet::append(const DataSet &Other) {
  if (Bench.empty())
    Bench = Other.Bench;
  if (Machine.empty())
    Machine = Other.Machine;
  Points.insert(Points.end(), Other.Points.begin(), Other.Points.end());
}

std::vector<Sample> series(const DataSet &Data, std::string_view Param,
                           std::string_view Metric) {
  std::vector<Sample> Out;
  for (const DataPoint &P : Data.Points) {
    auto X = P.Params.find(Param);
    auto Y = P.Metrics.find(Metric);
    if (X == P.Params.end() || Y == P.Metrics.end())
      continue;
    Out.push_back({X->second, Y->second});
  }
  std::sort(Out.begin(), Out.end(), [](const Sample &A, const Sample &B) {
    return A.X != B.X ? A.X < B.X : A.Y < B.Y;
  });
  return Out;
}

std::vector<std::string> varyingParams(const DataSet &Data) {
  std::map<std::string, std::set<double>, std::less<>> Values;
  for (const DataPoint &P : Data.Points)
    for (const auto &[Name, Value] : P.Params)
      Values[Name].insert(Value);
  std::vector<std::string> Out;
  for (const auto &[Name, Distinct] : Values)
    if (Distinct.size() > 1)
      Out.push_back(Name);
  return Out;
}

std::vector<std::string> metricNames(const DataSet &Data) {
  std::set<std::string, std::less<>> Names;
  for (const DataPoint &P : Data.Points)
    for (const auto &[Name, Value] : P.Metrics) {
      (void)Value;
      Names.insert(Name);
    }
  return {Names.begin(), Names.end()};
}

std::string writeSweepJson(const DataSet &Data) {
  std::string Out = "{\n  \"parcs_sweep\": 1";
  if (!Data.Bench.empty()) {
    Out += ",\n  \"bench\": ";
    json::appendString(Out, Data.Bench);
  }
  if (!Data.Machine.empty()) {
    Out += ",\n  \"machine\": ";
    json::appendString(Out, Data.Machine);
  }
  Out += ",\n  \"points\": [";
  bool First = true;
  for (const DataPoint &P : Data.Points) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    Out += "{\"params\": ";
    appendMap(Out, P.Params);
    Out += ", \"metrics\": ";
    appendMap(Out, P.Metrics);
    Out += '}';
  }
  Out += "\n  ]\n}\n";
  return Out;
}

} // namespace parcs::model
