//===- telemetry/Slo.cpp - Declarative latency objectives -----------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Slo.h"

#include "support/EnvSpec.h"

namespace parcs::telemetry {

bool parseSloSpec(std::string_view Text, SloSpec &Out) {
  std::string_view S = trim(Text);
  if (!S.starts_with("slo(") || !S.ends_with(')'))
    return false;
  // Three comma-separated clauses: series, "pP < dur", "window=dur".
  std::vector<std::string_view> Parts = split(S.substr(4, S.size() - 5), ',');
  if (Parts.size() != 3)
    return false;
  SloSpec Spec;
  Spec.Series = std::string(trim(Parts[0]));
  std::string_view Objective = trim(Parts[1]);
  size_t Lt = Objective.find('<');
  std::string_view Percentile = trim(Objective.substr(0, Lt));
  std::string_view Window = trim(Parts[2]);
  if (Spec.Series.empty() || Lt == std::string_view::npos ||
      !Percentile.starts_with('p') ||
      !parseDecimal(Percentile.substr(1), Spec.Percentile) ||
      Spec.Percentile < 0 || Spec.Percentile > 100 ||
      !parseDurationNs(trim(Objective.substr(Lt + 1)), "ns",
                       Spec.ThresholdNs) ||
      Spec.ThresholdNs <= 0 || !Window.starts_with("window=") ||
      !parseDurationNs(trim(Window.substr(7)), "ns", Spec.WindowNs) ||
      Spec.WindowNs <= 0)
    return false;
  Spec.Text = std::string(S);
  Out = std::move(Spec);
  return true;
}

bool parseSloSpecs(std::string_view Text, std::vector<SloSpec> &Out,
                   std::string *BadToken) {
  size_t Before = Out.size();
  for (std::string_view One : split(Text, ';')) {
    SloSpec Spec;
    if (!parseSloSpec(One, Spec)) {
      Out.resize(Before);
      return envspec::reject(trim(One), BadToken);
    }
    Out.push_back(std::move(Spec));
  }
  return true;
}

} // namespace parcs::telemetry
