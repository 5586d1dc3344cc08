//===- perfbench/src/Main.cpp - Whole-program benchmark entry point ------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload in a closed loop (one complete simulation per
/// iteration, back to back, single-threaded) and prints its metrics.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--smoke] [--corrupt-expected] [--spans <file>]
///             [--commit <id>]
///
/// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
/// variant (spans, layer probes, layer table) and prints the per-layer
/// metrics.  The last stdout line is one JSON object:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// Exit status: 0 when the run completed (failed iterations are reported,
/// not fatal), 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

/// Run lengths (--seconds) are wall time; what is reported is CPU time.
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  bool CorruptExpected = false;
  std::string SpansPath;
  std::string Commit = "unknown";
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--corrupt-expected] "
               "[--spans <file>] [--commit <id>]\n",
               Why);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--smoke") {
      O.Smoke = true;
    } else if (A == "--corrupt-expected") {
      O.CorruptExpected = true;
    } else if (A == "--workload" || A == "--seed" || A == "--seconds" ||
               A == "--trace" || A == "--spans" || A == "--commit") {
      const char *V = Next();
      if (!V)
        return false;
      char *End = nullptr;
      if (A == "--workload")
        O.Workload = V;
      else if (A == "--spans")
        O.SpansPath = V;
      else if (A == "--commit")
        O.Commit = V;
      else if (A == "--seed")
        O.Seed = std::strtoull(V, &End, 10);
      else if (A == "--seconds")
        O.Seconds = std::strtod(V, &End);
      else
        O.Trace = std::strtol(V, &End, 10) != 0;
      if (End && *End)
        return false;
    } else {
      return false;
    }
  }
  return !O.Workload.empty() && O.Seconds > 0;
}

/// Linear-interpolated percentile of \p V (sorted copy).
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - static_cast<double>(Lo));
}

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss would also count a larger parent, as it survives exec.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.starts_with("VmHWM:"))
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB -> MB.
  return 0;
}

/// Runs iterations, checks each, and holds the per-seed invariants: the
/// virtual digest (results + exact counts) of every iteration must equal
/// the first one's.
class Runner {
public:
  explicit Runner(Workload &W) : W(W) {}

  /// One checked iteration; returns its host ms.  With \p Spans, the
  /// iteration is also recorded as a span.
  double iterate(SpanRecorder *Spans = nullptr) {
    Counts Before = snapshotCounts();
    int Span = Spans ? Spans->begin("iteration") : -1;
    int64_t Start = cpuNowNs();
    IterationResult R = W.iterate();
    double Ms = static_cast<double>(cpuNowNs() - Start) / 1e6;
    if (Spans)
      Spans->end(Span);
    Counts Iter = countDelta(snapshotCounts(), Before);

    ++Attempted;
    std::string Failure = R.Failure;
    if (Failure.empty())
      Failure = W.checkCounts(Iter);
    uint64_t Digest = R.Digest;
    for (const auto &[Name, V] : Iter) {
      for (char C : Name)
        Digest = (Digest ^ static_cast<uint8_t>(C)) * 0x100000001b3ULL;
      Digest = (Digest ^ static_cast<uint64_t>(V)) * 0x100000001b3ULL;
    }
    if (Attempted == 1) {
      FirstDigest = Digest;
      FirstCounts = Iter;
    } else if (Failure.empty() && Digest != FirstDigest) {
      Failure = "virtual_digest differs from the first iteration";
    }
    if (!Failure.empty()) {
      ++Failed;
      if (FirstFailure.empty())
        FirstFailure = Failure;
    }
    return Ms;
  }

  Workload &W;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t FirstDigest = 0;
  Counts FirstCounts;
  std::string FirstFailure;
};

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(const Runner &R, const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
}

void printFingerprint(const Options &O, const Workload &W) {
  const char *SimThreads = std::getenv("PARCS_SIM_THREADS");
  std::printf("fingerprint: {\"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"assertions\": %s, "
              "\"PARCS_SIM_THREADS\": \"%s\", \"commit\": \"%s\"}\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, PERFBENCH_ASSERTIONS ? "true" : "false",
              SimThreads ? SimThreads : "unset", O.Commit.c_str());
  std::printf("workload: %s -- %s\n", O.Workload.c_str(),
              W.describe().c_str());
  if (W.usesSeed())
    std::printf("seed: %llu\n", static_cast<unsigned long long>(O.Seed));
  else
    std::printf("seed: %llu (unused: the workload has no random input)\n",
                static_cast<unsigned long long>(O.Seed));
}

void printCounts(const Runner &R) {
  std::printf("virtual_digest: %016llx\n",
              static_cast<unsigned long long>(R.FirstDigest));
  std::printf("exact counts per iteration:");
  for (const auto &[Name, V] : R.FirstCounts)
    if (V != 0)
      std::printf(" %s=%.0f", Name.c_str(), V);
  std::printf("\n");
  if (R.Failed)
    std::printf("FAILED %llu of %llu iterations; first: %s\n",
                static_cast<unsigned long long>(R.Failed),
                static_cast<unsigned long long>(R.Attempted),
                R.FirstFailure.c_str());
}

//===----------------------------------------------------------------------===//
// End-to-end run
//===----------------------------------------------------------------------===//

/// Set-up (scene build, calibration, the sequential reference and one
/// untimed warm-up iteration) is short, so it is repeated and its median
/// reported.
constexpr int SetupRuns = 5;

int runEndToEnd(const Options &O) {
  std::vector<double> SetupS;
  std::unique_ptr<Workload> W;
  std::unique_ptr<Runner> R;
  uint64_t EarlierAttempted = 0, EarlierFailed = 0;
  referenceMs(); // The first call also compiles its regex.
  for (int S = 0; S < SetupRuns; ++S) {
    if (R) {
      EarlierAttempted += R->Attempted;
      EarlierFailed += R->Failed;
    }
    double RefBefore = referenceMs();
    int64_t Start = cpuNowNs();
    W = makeWorkload(O.Workload);
    W->prepare(O.Seed, O.Smoke);
    if (O.CorruptExpected)
      W->corruptExpected();
    R = std::make_unique<Runner>(*W);
    R->iterate();
    double RawNs = static_cast<double>(cpuNowNs() - Start);
    SetupS.push_back(normalise(RawNs, (RefBefore + referenceMs()) / 2) / 1e9);
  }
  printFingerprint(O, *W);

  Clock::time_point Start = Clock::now();
  // Each iteration is normalised by the mean of the references run just
  // before and just after it.
  std::vector<double> RawMs, RefMs = {referenceMs()}, IterMs;
  while (secondsSince(Start) < O.Seconds || IterMs.size() < 3) {
    RawMs.push_back(R->iterate());
    RefMs.push_back(referenceMs());
    double Ref = (RefMs.end()[-2] + RefMs.back()) / 2;
    IterMs.push_back(normalise(RawMs.back(), Ref));
  }
  double Calls = invocations(R->FirstCounts);
  printCounts(*R);
  std::printf("iterations: %zu timed, %zu warm-up (one per set-up)\n",
              IterMs.size(), SetupS.size());
  std::printf("raw cpu ms per iteration: p50 %.3f p90 %.3f; reference "
              "kernel p50 %.4f ms (nominal %.1f)\n",
              percentile(RawMs, 50), percentile(RawMs, 90),
              percentile(RefMs, 50), ReferenceNominalMs);
  R->Attempted += EarlierAttempted;
  R->Failed += EarlierFailed;
  std::vector<Metric> M = {
      {"setup_s", percentile(SetupS, 50), "s"},
      {"iter_ms_p50", percentile(IterMs, 50), "ms"},
      {"iter_ms_p90", percentile(IterMs, 90), "ms"},
      // Per host second of a median iteration: steadier than the mean
      // under a noisy neighbour, and equal to it for identical iterations.
      {"sim_calls_per_s", Calls / (percentile(IterMs, 50) / 1e3), "1/s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  for (const Metric &X : M)
    std::printf("%-16s %14.4f %s\n", X.Name.c_str(), X.Value, X.Unit);
  printResult(*R, M);
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// Share of the run spent on iterations; the rest goes to the probes.
constexpr double IterationShare = 0.6;

int runTraced(const Options &O) {
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  W->prepare(O.Seed, O.Smoke);
  if (O.CorruptExpected)
    W->corruptExpected();
  Runner R(*W);
  R.iterate();
  printFingerprint(O, *W);

  // Untraced and traced iterations alternate, so the overhead estimate
  // sees the same machine state on both sides.
  SpanRecorder Spans;
  std::vector<double> Plain, Traced;
  Clock::time_point Start = Clock::now();
  // As in the end-to-end run, each iteration is normalised by the mean
  // of the references on either side of it.
  double Before = referenceMs();
  auto Timed = [&](SpanRecorder *S) {
    double Raw = R.iterate(S);
    double After = referenceMs();
    double Ms = normalise(Raw, (Before + After) / 2);
    Before = After;
    return Ms;
  };
  while (secondsSince(Start) < O.Seconds * IterationShare ||
         Traced.size() < 3) {
    Plain.push_back(Timed(nullptr));
    Traced.push_back(Timed(&Spans));
  }
  const Counts &I = R.FirstCounts;
  printCounts(R);

  // The probes get what is left of the run, with a little headroom.
  double Budget = std::max(O.Seconds - secondsSince(Start), 0.0) * 0.9;
  LayerCosts C = runProbes(I, W->probeShape(), Budget, Spans);
  // The app probe times the application's own compute outside the
  // runtime; its cost per unit scales to the iteration's unit count.
  std::vector<double> AppMs;
  Workload::AppProbe App;
  for (int K = 0; K < 5; ++K) {
    double Ref = referenceMs();
    int Id = Spans.begin("probe.apps");
    App = W->probeApp();
    Spans.end(Id);
    AppMs.push_back(normalise(App.Ms, Ref));
  }
  double AppProbeMs = percentile(AppMs, 50);
  double AppSelfMs =
      App.Units > 0 ? AppProbeMs / App.Units * count(I, App.UnitCounter) : 0;

  double Plain50 = percentile(Plain, 50);
  double Traced50 = percentile(Traced, 50);
  double Events = count(I, "sim.events");
  double Msgs = count(I, "net.messages_delivered");
  double Items = count(I, "pool.items_posted");
  double Issued = rpcCount(I, "calls_issued") + rpcCount(I, "oneway_sent");
  double Handled = rpcCount(I, "calls_handled");
  double Rejected = rpcCount(I, "overload_rejected");
  double Remote = count(I, "scoopp.remote_sync_calls") +
                  count(I, "scoopp.remote_async_calls");
  double Local = count(I, "scoopp.local_calls");
  double Creates =
      count(I, "scoopp.remote_creations") + count(I, "scoopp.local_creations");
  double PackedMsgs = count(I, "scoopp.packed_messages");

  struct Row {
    const char *Layer, *Op;
    double Count;
    LayerCosts::Cost Cost;
  };
  std::vector<Row> Rows = {
      {"sim", "event", Events, C.SimEvent},
      {"vm", "pool item", Items, C.VmItem},
      {"net", "message", Msgs, C.NetMsg},
      {"serial", "message", Msgs, C.SerialMsg},
      {"remoting", "call", Issued - Rejected, C.RemotingCall},
      {"remoting", "reject", Rejected, C.RemotingReject},
      {"core", "remote call", Remote, C.CoreRemoteCall},
      {"core", "local call", Local, C.CoreLocalCall},
      {"core", "create", Creates, C.CoreCreate},
  };
  std::map<std::string, double> SelfMs = {{"sim", 0},    {"vm", 0},
                                          {"net", 0},    {"serial", 0},
                                          {"remoting", 0}, {"core", 0}};
  std::printf("\nlayer table (host CPU time per iteration, normalised by "
              "the contention reference; ns/op from the stacked probes)\n");
  std::printf("%-9s %-12s %12s %12s %12s %12s %8s\n", "layer", "op",
              "count/iter", "ns/op total", "ns/op self", "self ms/iter",
              "share");
  double Attributed = AppSelfMs;
  for (const Row &X : Rows) {
    double Ms = X.Count * X.Cost.Self / 1e6;
    SelfMs[X.Layer] += Ms;
    Attributed += Ms;
    std::printf("%-9s %-12s %12.0f %12.1f %12.1f %12.3f %7.1f%%\n", X.Layer,
                X.Op, X.Count, X.Cost.Total, X.Cost.Self, Ms,
                100 * Ms / Plain50);
  }
  std::printf("%-9s %-12s %12s %12s %12s %12.3f %7.1f%%\n", "apps",
              *App.Metric ? App.Metric : "(none)", "-", "-", "-", AppSelfMs,
              100 * AppSelfMs / Plain50);
  std::printf("%-9s %-12s %12s %12s %12s %12.3f %7.1f%%\n", "(rest)",
              "unattributed", "-", "-", "-", Plain50 - Attributed,
              100 * (Plain50 - Attributed) / Plain50);
  std::printf("iterations: %zu untraced (p50 %.3f ms), %zu traced (p50 "
              "%.3f ms)\n",
              Plain.size(), Plain50, Traced.size(), Traced50);

  double RayMs = std::string_view(App.Metric) == "apps.ray.render_ms"
                     ? AppProbeMs : 0;
  double SieveMs = std::string_view(App.Metric) == "apps.sieve.ms"
                       ? AppProbeMs : 0;
  std::vector<Metric> M = {
      {"sim.events", Events, "count"},
      {"sim.events_per_call", Events / std::max(invocations(I), 1.0),
       "events/call"},
      {"sim.sbo_misses", count(I, "sim.sbo_misses"), "count"},
      {"sim.peak_queue_depth", count(I, "gauge:sim.peak_queue_depth"),
       "count"},
      {"sim.ns_per_event", C.SimEvent.Total, "ns"},
      {"sim.self_ms", SelfMs["sim"], "ms"},
      {"serial.payload_bytes", count(I, "net.payload_bytes"), "bytes"},
      {"serial.ns_per_msg", C.SerialMsg.Total, "ns"},
      {"serial.self_ms", SelfMs["serial"], "ms"},
      {"net.messages", Msgs, "count"},
      {"net.frames", count(I, "net.frames"), "count"},
      {"net.wire_bytes", count(I, "net.wire_bytes"), "bytes"},
      {"net.ns_per_msg", C.NetMsg.Total, "ns"},
      {"net.self_ms", SelfMs["net"], "ms"},
      {"vm.pool_items", Items, "count"},
      {"vm.pool_peak_depth", count(I, "gauge:pool.peak_queue_depth"),
       "count"},
      {"vm.ns_per_item", C.VmItem.Total, "ns"},
      {"vm.self_ms", SelfMs["vm"], "ms"},
      {"remoting.calls_issued", Issued, "count"},
      {"remoting.calls_handled", Handled, "count"},
      {"remoting.admit_ratio", Issued > 0 ? Handled / Issued : 0, "ratio"},
      {"remoting.overload_rejected", Rejected, "count"},
      {"remoting.ns_per_call", C.RemotingCall.Total, "ns"},
      {"remoting.ns_per_reject", C.RemotingReject.Total, "ns"},
      {"remoting.self_ms", SelfMs["remoting"], "ms"},
      {"core.remote_calls", Remote, "count"},
      {"core.local_calls", Local, "count"},
      {"core.creations", Creates, "count"},
      {"core.calls_per_packed_msg",
       PackedMsgs > 0 ? count(I, "scoopp.packed_calls") / PackedMsgs : 0,
       "calls/msg"},
      {"core.ns_per_remote_call", C.CoreRemoteCall.Total, "ns"},
      {"core.ns_per_local_call", C.CoreLocalCall.Total, "ns"},
      {"core.ns_per_create", C.CoreCreate.Total, "ns"},
      {"core.self_ms", SelfMs["core"], "ms"},
      {"apps.ray.render_ms", RayMs, "ms"},
      {"apps.sieve.ms", SieveMs, "ms"},
      {"layers.attributed_share", Attributed / Plain50, "ratio"},
      {"trace.overhead_pct", 100 * (Traced50 / Plain50 - 1), "%"},
  };
  for (const Metric &X : M)
    std::printf("%-28s %16.4f %s\n", X.Name.c_str(), X.Value, X.Unit);
  if (!O.SpansPath.empty() && !Spans.write(O.SpansPath))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.SpansPath.c_str());
  printResult(R, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage("bad arguments");
  if (!makeWorkload(O.Workload))
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  return O.Trace ? runTraced(O) : runEndToEnd(O);
}
