//===- tools/parcs_model/Main.cpp - Scaling-law modeling CLI --------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// parcs-model: fits predictive scaling laws (PMNF, Extra-P style) from
// bench sweeps and telemetry exports, extrapolates with confidence bands,
// and composes per-RPC-leg submodels.
//
//   parcs-model fit sweep.json [--param nodes] [--metric p99] [--json]
//   parcs-model predict sweep.json --nodes 1024
//   parcs-model compose legs.json [--end leg.total]
//   parcs-model legs --param nodes 4=t4.json 8=t8.json --out legs.json
//
// Every report is byte-stable: same inputs, same bytes.
//
//===----------------------------------------------------------------------===//

#include "model/Compose.h"
#include "model/Ingest.h"
#include "model/Legs.h"
#include "model/Report.h"
#include "support/File.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace parcs;
using namespace parcs::model;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: parcs-model <command> ...\n"
      "\n"
      "  fit <sweep.json>... [--param P] [--metric M] [--json] [--out FILE]\n"
      "      fit PMNF scaling laws to sweep/telemetry files; --json prints\n"
      "      the model JSON (--out writes it) instead of the text report\n"
      "  predict <sweep-or-model.json>... --<param> <value> [--metric M]\n"
      "      extrapolate every fitted metric to --<param> <value> with\n"
      "      confidence bands (e.g. --nodes 1024)\n"
      "  compose <sweep.json>... [--param P] [--end METRIC]\n"
      "      fit per-leg submodels (leg.*), compose them additively, and\n"
      "      validate against the direct end-to-end fit (default leg.total)\n"
      "  legs --param P [--out FILE] <value>=<trace.json>...\n"
      "      turn parcs-prof trace exports into a leg sweep: each trace is\n"
      "      analyzed and becomes one point at P=<value>\n");
  return 2;
}

int fail(const std::string &Msg) {
  std::fprintf(stderr, "parcs-model: %s\n", Msg.c_str());
  return 1;
}

/// Loads and merges every path as a sweep / telemetry export.
ErrorOr<DataSet> loadMerged(const std::vector<std::string> &Paths) {
  DataSet Merged;
  for (const std::string &Path : Paths) {
    ErrorOr<std::string> Text = readFile(Path);
    if (!Text)
      return Text.error();
    ErrorOr<DataSet> One = loadSweep(*Text, Path);
    if (!One)
      return One.error();
    Merged.append(*One);
  }
  return Merged;
}

/// A model file, or else a sweep fitted with its parameter inferred
/// (fresh-baseline workflows).  Fails with the model parse error.
ErrorOr<ModelSet> loadModel(const std::string &Path) {
  ErrorOr<std::string> Text = readFile(Path);
  if (!Text)
    return Text.error();
  ErrorOr<ModelSet> Parsed = parseModelJson(*Text);
  if (Parsed)
    return Parsed;
  ErrorOr<DataSet> Sweep = loadSweep(*Text, Path);
  if (!Sweep)
    return Parsed.error();
  return fitAll(*Sweep, "");
}

/// predict's model source: a single model file loads directly (sweep
/// fallback included); several files merge as sweeps and fit fresh.
ErrorOr<ModelSet> loadOrFit(const std::vector<std::string> &Paths,
                            std::string_view Param) {
  if (Paths.size() == 1) {
    ErrorOr<ModelSet> Set = loadModel(Paths[0]);
    if (Set || Param.empty())
      return Set;
  }
  ErrorOr<DataSet> Merged = loadMerged(Paths);
  if (!Merged)
    return Merged.error();
  return fitAll(*Merged, Param);
}

int cmdFit(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  std::string Param, Metric, OutPath;
  bool Json = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--param" && I + 1 < Args.size())
      Param = Args[++I];
    else if (Args[I] == "--metric" && I + 1 < Args.size())
      Metric = Args[++I];
    else if (Args[I] == "--out" && I + 1 < Args.size())
      OutPath = Args[++I];
    else if (Args[I] == "--json")
      Json = true;
    else if (!Args[I].empty() && Args[I][0] == '-')
      return usage();
    else
      Paths.push_back(Args[I]);
  }
  if (Paths.empty())
    return usage();
  ErrorOr<DataSet> Data = loadMerged(Paths);
  if (!Data)
    return fail(Data.error().str());
  ErrorOr<ModelSet> Set = fitAll(*Data, Param);
  if (!Set)
    return fail(Set.error().str());
  if (!Metric.empty()) {
    auto It = Set->Models.find(Metric);
    if (It == Set->Models.end())
      return fail("metric \"" + Metric + "\" was not fitted");
    ModelSet One;
    One.Param = Set->Param;
    One.Models.emplace(It->first, It->second);
    *Set = std::move(One);
  }
  std::string Body = (Json || !OutPath.empty()) ? modelJson(*Set)
                                                : textReport(*Set);
  if (!OutPath.empty()) {
    if (Error E = writeFile(OutPath, Body))
      return fail(E.message());
    std::printf("parcs-model: wrote %s\n", OutPath.c_str());
    return 0;
  }
  std::fputs(Body.c_str(), stdout);
  return 0;
}

int cmdPredict(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  std::string Metric, ParamName;
  double ParamValue = 0;
  bool HaveValue = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--metric" && I + 1 < Args.size()) {
      Metric = Args[++I];
    } else if (Args[I].size() > 2 && Args[I][0] == '-' && Args[I][1] == '-' &&
               I + 1 < Args.size()) {
      // Generic --<param> <value>: --nodes 1024, --threads 64, ...
      ParamName = Args[I].substr(2);
      if (!parseDecimal(Args[I + 1], ParamValue))
        return usage();
      HaveValue = true;
      ++I;
    } else if (!Args[I].empty() && Args[I][0] == '-') {
      return usage();
    } else {
      Paths.push_back(Args[I]);
    }
  }
  if (Paths.empty() || !HaveValue)
    return usage();
  ErrorOr<ModelSet> Set = loadOrFit(Paths, ParamName);
  if (!Set)
    return fail(Set.error().str());
  if (Set->Param != ParamName)
    return fail("model is fitted against \"" + Set->Param +
                "\", not \"" + ParamName + "\" (pass --" + Set->Param + ")");
  if (ParamValue <= 0)
    return fail("--" + ParamName + " must be positive");

  std::printf("parcs-model predict -- %s = %s\n", ParamName.c_str(),
              json::number(ParamValue).c_str());
  size_t MetricW = 6;
  for (const auto &[Name, M] : Set->Models)
    if (Metric.empty() || Name == Metric)
      MetricW = std::max(MetricW, Name.size());
  std::printf("  %-*s   predicted        band\n", int(MetricW), "metric");
  bool Any = false;
  for (const auto &[Name, M] : Set->Models) {
    if (!Metric.empty() && Name != Metric)
      continue;
    Any = true;
    double Pred = M.predict(ParamValue);
    double Band = M.bandHalfWidth(ParamValue);
    std::printf("  %-*s  %10s  +/- %-10s [%s, %s]\n", int(MetricW),
                Name.c_str(), json::number(Pred).c_str(),
                json::number(Band).c_str(), json::number(Pred - Band).c_str(),
                json::number(Pred + Band).c_str());
  }
  if (!Any)
    return fail("metric \"" + Metric + "\" was not fitted");
  return 0;
}

int cmdCompose(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  std::string Param, End;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--param" && I + 1 < Args.size())
      Param = Args[++I];
    else if (Args[I] == "--end" && I + 1 < Args.size())
      End = Args[++I];
    else if (!Args[I].empty() && Args[I][0] == '-')
      return usage();
    else
      Paths.push_back(Args[I]);
  }
  if (Paths.empty())
    return usage();
  ErrorOr<DataSet> Data = loadMerged(Paths);
  if (!Data)
    return fail(Data.error().str());
  ErrorOr<Composition> C = compose(*Data, Param, End);
  if (!C)
    return fail(C.error().str());
  std::fputs(compositionReport(*C, *Data).c_str(), stdout);
  return 0;
}

int cmdLegs(const std::vector<std::string> &Args) {
  std::string Param, OutPath;
  std::vector<std::pair<double, std::string>> Traces;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--param" && I + 1 < Args.size()) {
      Param = Args[++I];
    } else if (Args[I] == "--out" && I + 1 < Args.size()) {
      OutPath = Args[++I];
    } else if (!Args[I].empty() && Args[I][0] == '-') {
      return usage();
    } else {
      size_t Eq = Args[I].find('=');
      if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Args[I].size())
        return usage();
      double Value = 0;
      if (!parseDecimal(std::string_view(Args[I]).substr(0, Eq), Value))
        return usage();
      Traces.emplace_back(Value, Args[I].substr(Eq + 1));
    }
  }
  if (Param.empty() || Traces.empty())
    return usage();
  DataSet Sweep;
  Sweep.Bench = "parcs-prof legs";
  for (const auto &[Value, Path] : Traces) {
    NumberMap Params;
    Params[Param] = Value;
    ErrorOr<DataPoint> Point = pointFromTraceFile(Path, Params);
    if (!Point)
      return fail(Path + ": " + Point.error().str());
    Sweep.Points.push_back(std::move(*Point));
  }
  std::string Body = writeSweepJson(Sweep);
  if (OutPath.empty()) {
    std::fputs(Body.c_str(), stdout);
    return 0;
  }
  if (Error E = writeFile(OutPath, Body))
    return fail(E.message());
  std::printf("parcs-model: wrote %s (%zu points)\n", OutPath.c_str(),
              Sweep.Points.size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  std::vector<std::string> Args(Argv + 2, Argv + Argc);
  if (Cmd == "--help" || Cmd == "-h") {
    usage();
    return 0;
  }
  if (Cmd == "fit")
    return cmdFit(Args);
  if (Cmd == "predict")
    return cmdPredict(Args);
  if (Cmd == "compose")
    return cmdCompose(Args);
  if (Cmd == "legs")
    return cmdLegs(Args);
  std::fprintf(stderr, "parcs-model: unknown command '%s'\n", Cmd.c_str());
  return usage();
}
