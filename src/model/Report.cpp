//===- model/Report.cpp - Fitted model sets, reports, model JSON ----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "model/Report.h"

#include "support/Json.h"

namespace parcs::model {

namespace {

using json::Value;

} // namespace

ErrorOr<ModelSet> fitAll(const DataSet &Data, std::string_view Param) {
  std::string ParamName(Param);
  if (ParamName.empty()) {
    std::vector<std::string> Varying = varyingParams(Data);
    if (Varying.empty())
      return Error(ErrorCode::InvalidArgument,
                   "no parameter varies across the sweep; pass --param");
    if (Varying.size() > 1) {
      std::string Names;
      for (const std::string &N : Varying) {
        if (!Names.empty())
          Names += ", ";
        Names += N;
      }
      return Error(ErrorCode::InvalidArgument,
                   "several parameters vary (" + Names +
                       "); pass --param to pick one");
    }
    ParamName = Varying[0];
  }

  ModelSet Set;
  Set.Param = ParamName;
  std::string FirstFailure;
  for (const std::string &Metric : metricNames(Data)) {
    std::vector<Sample> Samples = series(Data, ParamName, Metric);
    ErrorOr<FittedModel> M = fitPmnf(Samples, ParamName, Metric);
    if (M)
      Set.Models.emplace(Metric, std::move(*M));
    else if (FirstFailure.empty())
      FirstFailure = M.error().str();
  }
  if (Set.Models.empty())
    return Error(ErrorCode::InvalidArgument,
                 FirstFailure.empty() ? std::string("sweep has no metrics")
                                      : "no metric could be fitted: " +
                                            FirstFailure);
  return Set;
}

std::string textReport(const ModelSet &Set) {
  std::string Out = "parcs-model -- PMNF fits vs " + Set.Param + "\n";
  // Fixed layout: metric, fitted function, then the CV quality columns.
  size_t MetricW = 6, FuncW = 8;
  for (const auto &[Metric, M] : Set.Models) {
    MetricW = std::max(MetricW, Metric.size());
    FuncW = std::max(FuncW, M.functionStr().size());
  }
  Out += "  ";
  Out += "metric";
  Out.append(MetricW - 6, ' ');
  Out += "  ";
  Out += "model";
  Out.append(FuncW - 5, ' ');
  Out += "  points  cv-rmse  max-rel-err  r2\n";
  for (const auto &[Metric, M] : Set.Models) {
    Out += "  ";
    Out += Metric;
    Out.append(MetricW - Metric.size(), ' ');
    Out += "  ";
    std::string F = M.functionStr();
    Out += F;
    Out.append(FuncW - F.size(), ' ');
    Out += "  ";
    Out += std::to_string(M.Points);
    Out += "  ";
    Out += json::number(M.CvRmse);
    Out += "  ";
    Out += json::number(M.MaxRelErr);
    Out += "  ";
    Out += json::number(M.R2);
    Out += '\n';
  }
  return Out;
}

std::string modelJson(const ModelSet &Set) {
  std::string Out = "{\n  \"parcs_model\": 1,\n  \"param\": ";
  json::appendString(Out, Set.Param);
  Out += ",\n  \"models\": {";
  bool First = true;
  for (const auto &[Metric, M] : Set.Models) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    json::appendString(Out, Metric);
    Out += ": {\"function\": ";
    json::appendString(Out, M.functionStr());
    Out += ", \"c0\": ";
    Out += json::number(M.C0);
    Out += ", \"c1\": ";
    Out += json::number(M.C1);
    Out += ", \"exp\": ";
    Out += json::number(M.Exp);
    Out += ", \"log\": ";
    Out += json::number(double(M.Log));
    Out += ", \"points\": ";
    Out += json::number(double(M.Points));
    Out += ", \"cv_rmse\": ";
    Out += json::number(M.CvRmse);
    Out += ", \"max_rel_err\": ";
    Out += json::number(M.MaxRelErr);
    Out += ", \"r2\": ";
    Out += json::number(M.R2);
    Out += '}';
  }
  Out += "\n  }\n}\n";
  return Out;
}

ErrorOr<ModelSet> parseModelJson(std::string_view Json) {
  Value Root;
  if (!json::parse(Json, Root) || !Root.isObject())
    return Error(ErrorCode::MalformedMessage, "model file is not JSON");
  const Value *Models = Root.field("models");
  if (!Models)
    return Error(ErrorCode::MalformedMessage,
                 "no \"models\" section (not a parcs-model file)");
  if (!Models->isObject())
    return Error(ErrorCode::MalformedMessage, "\"models\" is not an object");
  ModelSet Set;
  Set.Param = std::string(Root.str("param"));
  if (Set.Param.empty())
    return Error(ErrorCode::MalformedMessage, "model file names no param");
  for (const auto &[Metric, M] : Models->Obj) {
    FittedModel F;
    F.Param = Set.Param;
    F.Metric = Metric;
    F.C0 = M.num("c0");
    F.C1 = M.num("c1");
    F.Exp = M.num("exp");
    F.Log = int(M.num("log"));
    F.Points = size_t(M.num("points"));
    F.CvRmse = M.num("cv_rmse");
    F.MaxRelErr = M.num("max_rel_err");
    F.R2 = M.num("r2");
    Set.Models.emplace(Metric, std::move(F));
  }
  if (Set.Models.empty())
    return Error(ErrorCode::MalformedMessage, "model file has no models");
  return Set;
}

} // namespace parcs::model
