//===- support/Metrics.cpp - Named end-of-run metrics ---------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/EnvSpec.h"
#include "support/File.h"
#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace parcs::metrics {

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

namespace {

/// Index of the log2 bucket holding \p Value: 0 for 0, otherwise
/// 1 + floor(log2), with everything >= 2^Histogram::MaxShift in the
/// overflow bucket.
int bucketIndex(uint64_t Value) {
  if (Value == 0)
    return 0;
  int Log2 = 63 - __builtin_clzll(Value);
  if (Log2 >= Histogram::MaxShift)
    return Histogram::NumBuckets - 1;
  return Log2 + 1;
}

/// Inclusive [lo, hi] value range a finite bucket covers.
void bucketRange(int B, double &Lo, double &Hi) {
  if (B == 0) {
    Lo = Hi = 0.0;
    return;
  }
  Lo = static_cast<double>(uint64_t{1} << (B - 1));
  Hi = static_cast<double>(uint64_t{1} << B) - 1.0;
}

} // namespace

void Histogram::record(int64_t Value) {
  uint64_t V = Value < 0 ? 0 : uint64_t(Value);
  ++Buckets[bucketIndex(V)];
  int64_t Clamped = int64_t(V);
  if (Count == 0 || Clamped < Min)
    Min = Clamped;
  if (Count == 0 || Clamped > Max)
    Max = Clamped;
  Sum += V;
  ++Count;
}

void Histogram::merge(const Histogram &Other) {
  if (Other.Count == 0)
    return;
  for (int B = 0; B < NumBuckets; ++B)
    Buckets[B] += Other.Buckets[B];
  if (Count == 0 || Other.Min < Min)
    Min = Other.Min;
  if (Count == 0 || Other.Max > Max)
    Max = Other.Max;
  Sum += Other.Sum;
  Count += Other.Count;
}

double Histogram::percentile(double P) const {
  if (Count == 0)
    return EmptyPercentile;
  P = std::clamp(P, 0.0, 100.0);
  // Rank in [0, N-1]: linear interpolation between closest ranks.
  double Rank = P / 100.0 * static_cast<double>(Count - 1);
  double Target = Rank + 1.0; // 1-based position within the distribution.
  uint64_t Seen = 0;
  double Result = double(Max);
  for (int B = 0; B < NumBuckets; ++B) {
    if (Buckets[B] == 0)
      continue;
    if (static_cast<double>(Seen + Buckets[B]) >= Target) {
      double Lo, Hi;
      if (B == NumBuckets - 1) {
        // Overflow bucket: no finite upper bound; interpolate up to the
        // observed maximum.
        Lo = static_cast<double>(uint64_t{1} << MaxShift);
        Hi = double(Max);
      } else {
        bucketRange(B, Lo, Hi);
      }
      double Within = (Target - static_cast<double>(Seen)) /
                      static_cast<double>(Buckets[B]);
      Result = Lo + (Hi - Lo) * Within;
      break;
    }
    Seen += Buckets[B];
  }
  // Clamp to the exact observed range: a single sample reports itself, and
  // bucket upper bounds never exceed the true max.
  return std::clamp(Result, double(Min), double(Max));
}

std::string Histogram::str() const {
  if (Count == 0)
    return "n=0 (no samples)";
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "n=%llu mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%.0f",
                static_cast<unsigned long long>(Count), mean(),
                percentile(50.0), percentile(90.0), percentile(99.0),
                double(Max));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

bool parseMetricsSpec(std::string_view Spec, ReportSpec &Out,
                      std::string *BadToken) {
  ReportSpec S;
  std::string_view Format;
  if (!envspec::parse(
          Spec, S.Path,
          [&](std::string_view Key, std::string_view Value) {
            Format = Value;
            return Key == "format" && (Value == "json" || Value == "text");
          },
          BadToken))
    return false;
  // The format defaults from the path's extension.
  S.Json = Format.empty() ? S.Path.ends_with(".json") : Format == "json";
  Out = std::move(S);
  return true;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

/// Reads PARCS_METRICS at static-init time and writes the report when the
/// process shuts down.  Constructed after (and therefore destroyed before)
/// the global registry, which its constructor touches to pin the order.
struct EnvReporter {
  ReportSpec Spec;
  bool Active = false;

  EnvReporter() {
    Registry::global(); // Ensure the registry outlives this reporter.
    Active = envspec::readKnob("PARCS_METRICS", Spec, parseMetricsSpec);
  }

  ~EnvReporter() {
    if (!Active)
      return;
    const Registry &R = Registry::global();
    if (Error E = writeFile(Spec.Path,
                            Spec.Json ? R.jsonReport() : R.textReport()))
      std::fprintf(stderr, "[parcs:metrics] %s\n", E.message().c_str());
  }
};

EnvReporter TheEnvReporter;

} // namespace

Registry &Registry::global() {
  static Registry Instance;
  return Instance;
}

Registry::Metric &Registry::find(std::string_view Name, Kind K) {
  auto It = Metrics.find(Name);
  if (It == Metrics.end()) {
    Metric M;
    M.MetricKind = K;
    switch (K) {
    case Kind::Counter:
      M.C = std::make_unique<Counter>();
      break;
    case Kind::Gauge:
      M.G = std::make_unique<Gauge>();
      break;
    case Kind::Histogram:
      M.H = std::make_unique<Histogram>();
      break;
    }
    It = Metrics.emplace(std::string(Name), std::move(M)).first;
  }
  assert(It->second.MetricKind == K && "metric name reused with another kind");
  return It->second;
}

Counter &Registry::counter(std::string_view Name) {
  return *find(Name, Kind::Counter).C;
}

Gauge &Registry::gauge(std::string_view Name) {
  return *find(Name, Kind::Gauge).G;
}

Histogram &Registry::histogram(std::string_view Name) {
  return *find(Name, Kind::Histogram).H;
}

std::string Registry::textReport() const {
  size_t Width = 0;
  for (const auto &[Name, M] : Metrics)
    Width = std::max(Width, Name.size());
  std::ostringstream Os;
  for (const auto &[Name, M] : Metrics) {
    Os << Name << std::string(Width - Name.size() + 2, ' ');
    switch (M.MetricKind) {
    case Kind::Counter:
      Os << M.C->value();
      break;
    case Kind::Gauge:
      Os << M.G->value();
      break;
    case Kind::Histogram:
      Os << M.H->str();
      break;
    }
    Os << '\n';
  }
  return Os.str();
}

std::string Registry::jsonReport() const {
  std::string Out = "{\n";
  for (int Pass = 0; Pass < 3; ++Pass) {
    Kind Want = static_cast<Kind>(Pass);
    const char *Section = Pass == 0   ? "counters"
                          : Pass == 1 ? "gauges"
                                      : "histograms";
    Out += "  \"";
    Out += Section;
    Out += "\": {";
    bool First = true;
    for (const auto &[Name, M] : Metrics) {
      if (M.MetricKind != Want)
        continue;
      Out += First ? "\n    " : ",\n    ";
      First = false;
      json::appendString(Out, Name);
      Out += ": ";
      switch (Want) {
      case Kind::Counter:
        Out += std::to_string(M.C->value());
        break;
      case Kind::Gauge:
        Out += std::to_string(M.G->value());
        break;
      case Kind::Histogram: {
        const Histogram &H = *M.H;
        Out += "{\"n\": " + std::to_string(H.Count);
        Out += ", \"mean\": " + json::number(H.mean());
        Out += ", \"min\": " + json::number(double(H.Min));
        Out += ", \"p50\": " + json::number(H.percentile(50.0));
        Out += ", \"p90\": " + json::number(H.percentile(90.0));
        Out += ", \"p99\": " + json::number(H.percentile(99.0));
        Out += ", \"max\": " + json::number(double(H.Max));
        Out += ", \"overflow\": " + std::to_string(H.overflowCount()) + "}";
        break;
      }
      }
    }
    Out += First ? "}" : "\n  }";
    Out += Pass == 2 ? "\n" : ",\n";
  }
  Out += "}\n";
  return Out;
}

} // namespace parcs::metrics
