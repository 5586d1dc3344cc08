//===- perfbench/src/Measure.cpp - Clocks, spans and counts --------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <unordered_map>

using namespace perfbench;

int64_t perfbench::cpuNowNs() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<int64_t>(Ts.tv_sec) * 1'000'000'000 + Ts.tv_nsec;
}

double perfbench::referenceMs() {
  static const std::regex Pattern("([a-z]+)([0-9]+)_([0-9]+)\\.json");
  int64_t Start = cpuNowNs();
  // Three kinds of work, because neighbours slow different parts of a core
  // at different times and no one kind tracked every slowdown.
  // 1. Branchy integer work over an ordered map with short-lived
  //    allocations (the runtime's own mix).
  std::map<uint32_t, uint64_t> M;
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  for (int I = 0; I < 14000; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    M[static_cast<uint32_t>(X >> 52)] += X;
    std::vector<uint8_t> V(32 + (X >> 58));
    V[0] = static_cast<uint8_t>(X);
    X += V.size() + V[0];
  }
  // 2. A large code footprint: formatting, hashing, regex matching and
  //    sorting through many distinct library paths.  This part tracks the
  //    slowdowns that hit the simulation's large code the hardest.
  std::unordered_map<std::string, int> Seen;
  std::vector<std::string> Names;
  for (int I = 0; I < 1260; ++I) {
    std::ostringstream Os;
    Os << "name" << (I * 7919 % 1000) << "_" << I * 31 << ".json";
    Names.push_back(Os.str());
    Seen[Names.back()] += I;
    std::smatch Match;
    if (std::regex_search(Names.back(), Match, Pattern))
      Seen[Match[2].str()] += 1;
  }
  std::sort(Names.begin(), Names.end());
  // 3. Ray/sphere-style floating point (the ray tracer's mix).
  double D = 0;
  for (int I = 0; I < 67000; ++I) {
    double Dx = 0.001 * (I & 1023) - 0.5, Dy = 0.0007 * (I & 511) - 0.2;
    double Inv = 1 / std::sqrt(Dx * Dx + Dy * Dy + 1);
    for (int S = 0; S < 8; ++S) {
      double Lx = S * 0.3 - 1.1, Ly = (S & 3) * 0.2 - 0.2, Lz = 5 + S * 0.1;
      double B = (Lx * Dx + Ly * Dy + Lz) * Inv;
      double Disc = B * B - (Lx * Lx + Ly * Ly + Lz * Lz) + 0.6;
      if (Disc > 0)
        D += B - std::sqrt(Disc);
    }
  }
  double Ms = static_cast<double>(cpuNowNs() - Start) / 1e6;
  // Keep the work observable so the optimiser cannot drop it.
  if (D + static_cast<double>(M.size() + X + Seen.size() + Names[0].size()) ==
      -1.0)
    std::printf("unreachable\n");
  return Ms;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

int SpanRecorder::begin(std::string Name) {
  Span S;
  S.Name = std::move(Name);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = cpuNowNs();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

int64_t SpanRecorder::end(int Id) {
  int64_t Now = cpuNowNs();
  assert(!Open.empty() && Open.back() == Id && "spans close innermost first");
  Open.pop_back();
  Spans[Id].EndNs = Now;
  return Now - Spans[Id].StartNs;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary);
  Out << "[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "  {\"id\": " << I << ", \"name\": \"" << S.Name
        << "\", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
        << ", \"parent\": " << S.Parent << "}"
        << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "]\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Exact counts
//===----------------------------------------------------------------------===//

Counts perfbench::snapshotCounts() {
  parcs::json::Value Report;
  bool Parsed =
      parcs::json::parse(parcs::metrics::Registry::global().jsonReport(),
                         Report);
  assert(Parsed && "the registry's own JSON report must parse");
  (void)Parsed;
  Counts Out;
  for (const char *Section : {"counters", "gauges"})
    if (const parcs::json::Value *S = Report.field(Section))
      for (const auto &[Name, V] : S->Obj)
        if (V.isNumber())
          Out[std::string(Section[0] == 'g' ? "gauge:" : "") + Name] = V.Num;
  return Out;
}

Counts perfbench::countDelta(const Counts &After, const Counts &Before) {
  Counts Out;
  for (const auto &[Name, V] : After)
    Out[Name] = Name.starts_with("gauge:") ? V : V - count(Before, Name);
  return Out;
}

double perfbench::count(const Counts &C, std::string_view Name) {
  auto It = C.find(std::string(Name));
  return It == C.end() ? 0 : It->second;
}

double perfbench::rpcCount(const Counts &C, std::string_view Suffix) {
  double Sum = 0;
  for (const auto &[Name, V] : C)
    if (Name.starts_with("rpc.") && Name.size() > Suffix.size() + 1 &&
        Name.ends_with(Suffix) &&
        Name[Name.size() - Suffix.size() - 1] == '.')
      Sum += V;
  return Sum;
}

double perfbench::invocations(const Counts &C) {
  return count(C, "scoopp.remote_sync_calls") +
         count(C, "scoopp.remote_async_calls") +
         count(C, "scoopp.local_calls");
}
