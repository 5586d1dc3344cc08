//===- perfbench/src/Workloads.cpp - The four paper workloads ------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload builds one complete simulation per iteration through the
/// public app entry points and checks its output against a sequential
/// reference computed during set-up.  Sizes follow perfbench/README.md;
/// --smoke shrinks each to a few milliseconds per iteration.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/loadgen/LoadGen.h"
#include "apps/ray/Farm.h"
#include "apps/sieve/Sieve.h"
#include "core/World.h"

#include <bit>
#include <cstdio>

using namespace parcs;
using namespace perfbench;

Workload::~Workload() = default;

namespace {

/// FNV-1a over 64-bit words: the virtual-result digest.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ULL;
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void add(double V) { add(std::bit_cast<uint64_t>(V)); }
};

//===----------------------------------------------------------------------===//
// ray-farm: Fig. 9, the paper's headline
//===----------------------------------------------------------------------===//

class RayFarm final : public Workload {
public:
  bool usesSeed() const override { return false; }

  void prepare(uint64_t, bool Smoke) override {
    auto J = std::make_shared<apps::ray::RayJob>();
    J->SceneData = apps::ray::Scene::javaGrande(4);
    J->Width = Smoke ? 60 : 500;
    J->Height = Smoke ? 60 : 500;
    J->LinesPerTask = Smoke ? 5 : 25;
    // The paper's ~100 s sequential Java time for the frame (as the
    // fig9_raytracer bench calibrates it).
    J->NsPerOp = apps::ray::calibrateNsPerOp(J->SceneData, J->Width,
                                             J->Height, 100.0);
    Job = std::move(J);
    Expected =
        apps::ray::sequentialRender(*Job, vm::VmKind::SunJvm142).Checksum;
  }

  IterationResult iterate() override {
    apps::ray::FarmConfig Config;
    Config.Processors = 6;
    apps::ray::FarmResult R = apps::ray::runScooppRayFarm(Job, Config);
    IterationResult Out;
    Digest D;
    D.add(static_cast<uint64_t>(R.Elapsed.nanosecondsCount()));
    D.add(R.Checksum);
    D.add(R.PixelBytes);
    D.add(static_cast<uint64_t>(R.RowsRecovered));
    D.add(static_cast<uint64_t>(R.Complete));
    Out.Digest = D.H;
    if (!R.Complete)
      Out.Failure = "farm reported an incomplete image";
    else if (R.Checksum != Expected)
      Out.Failure = "checksum differs from sequentialRender";
    return Out;
  }

  void corruptExpected() override { Expected ^= 1; }

  std::string describe() const override {
    return "runScooppRayFarm javaGrande(4) " + std::to_string(Job->Width) +
           "x" + std::to_string(Job->Height) +
           " LinesPerTask=" + std::to_string(Job->LinesPerTask) + " P=6";
  }

  AppProbe probeApp() override {
    int64_t Start = cpuNowNs();
    uint64_t Sum = 0;
    for (int Y = 0; Y < Job->Height; ++Y)
      Sum += Job->SceneData.renderLine(Y, Job->Width, Job->Height).Ops;
    double Ms = static_cast<double>(cpuNowNs() - Start) / 1e6;
    Sink = Sink + Sum;
    return {"apps.ray.render_ms", Ms, static_cast<double>(Job->Height),
            "ray.lines_rendered"};
  }

private:
  std::shared_ptr<const apps::ray::RayJob> Job;
  uint64_t Expected = 0;
  volatile uint64_t Sink = 0;
};

//===----------------------------------------------------------------------===//
// loadgen-open / loadgen-overload: the message path under open-loop load
//===----------------------------------------------------------------------===//

class LoadGen final : public Workload {
public:
  explicit LoadGen(bool Overload) : Overload(Overload) {}

  bool usesSeed() const override { return true; }

  void prepare(uint64_t Seed, bool Smoke) override {
    Cfg.Nodes = 4;
    Cfg.ClientNodes = 3;
    Cfg.Workers = 8;
    // 2 ms of work per call keeps 0.8x saturation server-bound; with the
    // generator's 30 us default the clients saturate first.
    Cfg.WorkCost = sim::SimTime::milliseconds(2);
    Cfg.MaxPending = Overload ? 6 : 0;
    Cfg.OfferedRate =
        (Overload ? 2.0 : 0.8) * apps::loadgen::saturationRate(Cfg);
    Cfg.Duration = sim::SimTime::milliseconds(
        Smoke ? 50 : (Overload ? OverloadMs : OpenMs));
    Cfg.Seed = Seed;
  }

  IterationResult iterate() override {
    apps::loadgen::LoadGenResult R = apps::loadgen::runLoadGen(Cfg);
    Completed = R.Completed;
    IterationResult Out;
    Digest D;
    for (uint64_t V : {R.Offered, R.Completed, R.Rejected, R.Failed,
                       R.SloWaits, R.ServerShed, R.CreationsDeferred})
      D.add(V);
    for (double V : {R.P50Us, R.P99Us, R.P999Us})
      D.add(V);
    Out.Digest = D.H;
    // Every offered call ends exactly once and none is lost.
    if (R.Offered != R.Completed + R.Rejected + R.Failed)
      Out.Failure = "Offered != Completed + Rejected + Failed";
    else if (R.Failed != 0)
      Out.Failure = "calls failed";
    else if (R.Offered == 0)
      Out.Failure = "no calls offered";
    return Out;
  }

  std::string checkCounts(const Counts &Iter) const override {
    // The servers executed each completed call exactly once.
    if (rpcCount(Iter, "calls_handled") !=
        static_cast<double>(Completed) + ExtraHandled)
      return "server calls_handled delta != Completed";
    return "";
  }

  void corruptExpected() override { ExtraHandled += 1; }

  std::string describe() const override {
    char Buf[200];
    std::snprintf(Buf, sizeof(Buf),
                  "runLoadGen Nodes=4 ClientNodes=3 Workers=8 WorkCost=2ms "
                  "rate=%.1fx saturation MaxPending=%zu Duration=%lldms",
                  Overload ? 2.0 : 0.8, Cfg.MaxPending,
                  static_cast<long long>(Cfg.Duration.nanosecondsCount() /
                                         1'000'000));
    return Buf;
  }

  AppProbe probeApp() override { return {}; }

  ProbeShape probeShape() const override {
    // runLoadGen's endpoint retry policy.
    ProbeShape S;
    S.Retry.MaxAttempts = 3;
    S.Retry.AttemptTimeout = sim::SimTime::seconds(2);
    S.Retry.MaxOverloadWaits = 1;
    return S;
  }

private:
  static constexpr int OpenMs = 5000;
  static constexpr int OverloadMs = 1500;

  bool Overload;
  apps::loadgen::LoadGenConfig Cfg;
  uint64_t Completed = 0;
  double ExtraHandled = 0;
};

//===----------------------------------------------------------------------===//
// sieve-adaptive: the running example, with grain adaptation doing the work
//===----------------------------------------------------------------------===//

class SieveAdaptive final : public Workload {
public:
  bool usesSeed() const override { return false; }

  void prepare(uint64_t, bool Smoke) override {
    auto J = std::make_shared<apps::sieve::SieveJob>();
    J->MaxN = Smoke ? 2000 : 20000;
    J->FilterCapacity = 16;
    J->BatchSize = 8;
    Job = std::move(J);
    Expected = apps::sieve::sequentialSieve(*Job, vm::VmKind::MonoVm117).Primes;
  }

  IterationResult iterate() override {
    scoopp::ParallelClassRegistry Registry;
    apps::sieve::registerSieveClasses(Registry, Job);
    scoopp::ScooppConfig Config;
    Config.Grain.Adaptive = true;
    Config.Grain.MaxCallsPerMessage = 8;
    ErrorOr<apps::sieve::PipelineResult> Result =
        Error(ErrorCode::InvalidArgument, "pipeline did not finish");
    sim::SimTime Elapsed;
    {
      scoopp::ScooppWorld World(4, std::move(Registry), Config);
      Elapsed = World.runMain(
          [&](scoopp::ScooppRuntime &Rt) -> sim::Task<void> {
            Result = co_await apps::sieve::runSievePipeline(Rt, 0, Job);
          });
    }
    IterationResult Out;
    Digest D;
    D.add(static_cast<uint64_t>(Elapsed.nanosecondsCount()));
    if (!Result) {
      Out.Failure = "pipeline failed: " + Result.error().str();
      Out.Digest = D.H;
      return Out;
    }
    D.add(static_cast<uint64_t>(Result->FilterCount));
    for (int32_t P : Result->Primes)
      D.add(static_cast<uint64_t>(P));
    Out.Digest = D.H;
    if (Result->Primes != Expected)
      Out.Failure = "primes differ from sequentialSieve";
    return Out;
  }

  void corruptExpected() override { Expected.push_back(1); }

  std::string describe() const override {
    return "runSievePipeline ScooppWorld(4) MaxN=" +
           std::to_string(Job->MaxN) +
           " FilterCapacity=16 BatchSize=8 Grain.Adaptive "
           "MaxCallsPerMessage=8";
  }

  AppProbe probeApp() override {
    int64_t Start = cpuNowNs();
    auto R = apps::sieve::sequentialSieve(*Job, vm::VmKind::MonoVm117);
    double Ms = static_cast<double>(cpuNowNs() - Start) / 1e6;
    Sink = Sink + R.Tests;
    // The pipeline's filters test every candidate against every stored
    // prime, so it runs more tests than the sequential sieve's early exit.
    return {"apps.sieve.ms", Ms, static_cast<double>(R.Tests), "sieve.tests"};
  }

  ProbeShape probeShape() const override {
    // process(Seq, batch) is the intra-grain call the pipeline makes.
    ProbeShape S;
    S.LocalArgBytes =
        serial::encodeValues(int32_t(0), std::vector<int32_t>(Job->BatchSize))
            .size();
    return S;
  }

private:
  std::shared_ptr<const apps::sieve::SieveJob> Job;
  std::vector<int32_t> Expected;
  volatile uint64_t Sink = 0;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "ray-farm", "loadgen-open", "loadgen-overload", "sieve-adaptive"};
  return Names;
}

std::unique_ptr<Workload> perfbench::makeWorkload(std::string_view Name) {
  if (Name == "ray-farm")
    return std::make_unique<RayFarm>();
  if (Name == "loadgen-open")
    return std::make_unique<LoadGen>(false);
  if (Name == "loadgen-overload")
    return std::make_unique<LoadGen>(true);
  if (Name == "sieve-adaptive")
    return std::make_unique<SieveAdaptive>();
  return nullptr;
}
