//===- model/Compose.cpp - Compositional per-leg models -------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "model/Compose.h"

#include "model/Legs.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace parcs::model {

namespace {

bool isLegMetric(std::string_view Name) {
  return Name.substr(0, LegPrefix.size()) == LegPrefix;
}

} // namespace

double Composition::predict(double X) const {
  double Sum = 0;
  for (const auto &[Name, M] : Legs)
    Sum += M.predict(X);
  return Sum;
}

double Composition::bandHalfWidth(double X) const {
  double Sum = 0;
  for (const auto &[Name, M] : Legs)
    Sum += M.bandHalfWidth(X);
  return Sum;
}

ErrorOr<Composition> compose(const DataSet &Data, std::string_view Param,
                             std::string_view EndMetric) {
  std::string End(EndMetric.empty() ? std::string(LegPrefix) + "total"
                                    : std::string(EndMetric));
  ErrorOr<ModelSet> All = fitAll(Data, Param);
  if (!All)
    return All.error();

  Composition C;
  C.Param = All->Param;
  C.EndMetric = End;
  auto DirectIt = All->Models.find(End);
  if (DirectIt == All->Models.end())
    return Error(ErrorCode::InvalidArgument,
                 "end-to-end metric \"" + End + "\" could not be fitted");
  C.Direct = DirectIt->second;
  for (const auto &[Metric, M] : All->Models)
    if (Metric != End && isLegMetric(Metric))
      C.Legs.emplace(Metric, M);
  if (C.Legs.empty())
    return Error(ErrorCode::InvalidArgument,
                 "no \"leg.*\" submodels to compose (run parcs-model legs "
                 "first, or name metrics with a leg. prefix)");

  // Validate: composed vs direct over the xs the fits saw.
  std::set<double> Xs;
  for (const Sample &S : series(Data, C.Param, End))
    Xs.insert(S.X);
  for (double X : Xs) {
    double Composed = C.predict(X);
    double Direct = C.Direct.predict(X);
    double Gap = std::abs(Composed - Direct) /
                 std::max(std::abs(Direct), 1e-12);
    C.CompositionErr = std::max(C.CompositionErr, Gap);
  }
  return C;
}

std::string compositionReport(const Composition &C, const DataSet &Data) {
  std::string Out =
      "parcs-model compose -- additive legs vs " + C.EndMetric + "\n";
  size_t LegW = 6;
  for (const auto &[Name, M] : C.Legs)
    LegW = std::max(LegW, Name.size());
  LegW = std::max(LegW, C.EndMetric.size() + 9); // "direct <metric>"
  for (const auto &[Name, M] : C.Legs) {
    Out += "  ";
    Out += Name;
    Out.append(LegW - Name.size(), ' ');
    Out += "  ";
    Out += M.functionStr();
    Out += '\n';
  }
  std::string DirectLabel = "direct " + C.EndMetric;
  Out += "  ";
  Out += DirectLabel;
  Out.append(LegW - DirectLabel.size(), ' ');
  Out += "  ";
  Out += C.Direct.functionStr();
  Out += '\n';

  std::set<double> Xs;
  for (const Sample &S : series(Data, C.Param, C.EndMetric))
    Xs.insert(S.X);
  Out += "  validation (composed vs direct):\n";
  Out += "    " + C.Param + "    composed      direct      gap\n";
  for (double X : Xs) {
    double Composed = C.predict(X);
    double Direct = C.Direct.predict(X);
    double Gap = std::abs(Composed - Direct) /
                 std::max(std::abs(Direct), 1e-12);
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "    %8s  %10s  %10s  %6s%%\n",
                  json::number(X).c_str(), json::number(Composed).c_str(),
                  json::number(Direct).c_str(),
                  json::number(100.0 * Gap).c_str());
    Out += Buf;
  }
  Out += "  composition error: " + json::number(100.0 * C.CompositionErr) +
         "%\n";
  return Out;
}

} // namespace parcs::model
