//===- bench/fig9_raytracer.cpp - E5: Fig. 9 reproduction -----------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 9: execution time of the parallel (Java Grande) ray
/// tracer on 1..6 processors, ParC# (Mono) versus Java RMI (Sun JVM),
/// rendering the paper's 500x500 scene.  Per-op virtual cost is
/// calibrated so the sequential Java time matches the paper's ~100 s.
///
/// Expected shape: both curves fall with processors; ParC# sits above
/// Java RMI (Mono's 1.4x sequential FP penalty plus thread-pool effects),
/// with the ratio growing slightly at higher processor counts.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "apps/ray/Farm.h"

#include <cstring>

using namespace parcs;
using namespace parcs::apps::ray;
using namespace parcs::bench;

namespace {

/// Value of "--faults <spec>" or nullptr.
const char *faultSpec(int Argc, char **Argv) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--faults") == 0)
      return Argv[I + 1];
  return nullptr;
}

bool wantFaultSweep(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--fault-sweep") == 0)
      return true;
  return false;
}

/// One chaos farm run under \p Plan; prints a result row.
int chaosRow(const std::shared_ptr<const RayJob> &Job, uint64_t Reference,
             const std::string &Label, const fault::FaultPlan &Plan) {
  FarmConfig Config;
  Config.Processors = 6;
  Config.Faults = Plan;
  FarmResult R = runScooppRayFarm(Job, Config);
  bool ChecksumOk = R.Checksum == Reference;
  row({Label, fmt(R.Elapsed.toSecondsF(), 1), std::to_string(R.RowsRecovered),
       R.Complete ? "yes" : "NO", ChecksumOk ? "ok" : "MISMATCH"});
  return ChecksumOk && R.Complete ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  banner("E5 (Fig. 9)", "parallel ray tracer execution time, 500x500");

  auto Job = std::make_shared<RayJob>();
  Job->SceneData = Scene::javaGrande(4);
  Job->Width = 500;
  Job->Height = 500;
  Job->LinesPerTask = 25;
  // Calibration: the paper's sequential Java time is ~100 s for this
  // frame (Fig. 9 at one processor).
  Job->NsPerOp =
      calibrateNsPerOp(Job->SceneData, Job->Width, Job->Height, 100.0);

  SequentialResult Reference =
      sequentialRender(*Job, vm::VmKind::SunJvm142);

  // Virtual-time measurements: one run per shape is exact, so the sweep
  // needs no repeats.
  SweepWriter Sweep("fig9_raytracer");
  row({"processors", "ParC# s", "JavaRMI s", "ratio"});
  for (int P = 1; P <= 6; ++P) {
    FarmConfig Config;
    Config.Processors = P;
    FarmResult Parcs = runScooppRayFarm(Job, Config);
    FarmResult Rmi = runRmiRayFarm(Job, P);
    if (Parcs.Checksum != Reference.Checksum ||
        Rmi.Checksum != Reference.Checksum) {
      std::printf("CHECKSUM MISMATCH at P=%d -- farm rendered a different "
                  "image\n",
                  P);
      return 1;
    }
    Sweep.point({{"processors", double(P)}},
                {{"parcs_s", Parcs.Elapsed.toSecondsF()},
                 {"rmi_s", Rmi.Elapsed.toSecondsF()}});
    row({std::to_string(P), fmt(Parcs.Elapsed.toSecondsF(), 1),
         fmt(Rmi.Elapsed.toSecondsF(), 1),
         fmt(Parcs.Elapsed.toSecondsF() / Rmi.Elapsed.toSecondsF())});
  }
  if (!Sweep.write(sweepOutPath(Argc, Argv)))
    return 1;
  std::printf("\npaper anchors: Java ~100 s sequential; ParC# ~40%% above "
              "Java at one\nprocessor (Mono VM); both fall with processors; "
              "checksums verified\n");

  if (wantCriticalPath(Argc, Argv)) {
    // One extra traced ParC# run (P=4) so the DAG covers a single
    // simulation; the table above stays untraced and unperturbed.
    TracedRunScope Traced;
    FarmConfig Config;
    Config.Processors = 4;
    FarmResult Parcs = runScooppRayFarm(Job, Config);
    if (Parcs.Checksum != Reference.Checksum) {
      std::printf("CHECKSUM MISMATCH in traced re-run\n");
      return 1;
    }
    if (!criticalPathReport("ParC# ray farm, P=4"))
      return 1;
  }

  int Failures = 0;
  if (const char *Spec = faultSpec(Argc, Argv)) {
    ErrorOr<fault::FaultPlan> Plan = fault::FaultPlan::parse(Spec);
    if (!Plan) {
      std::printf("--faults: %s\n", Plan.error().str().c_str());
      return 1;
    }
    std::printf("\n---- chaos run (P=6): %s ----\n", Plan->str().c_str());
    row({"plan", "ParC# s", "recovered", "complete", "checksum"});
    Failures += chaosRow(Job, Reference.Checksum, "custom", *Plan);
  }

  if (wantFaultSweep(Argc, Argv)) {
    // The robustness sweep of docs/robustness.md: rising message loss,
    // then one mid-render node crash (with and without restart).  Every
    // row must stay checksum-correct -- faults may cost time, never
    // pixels.
    std::printf("\n---- fault sweep (P=6, seed 42) ----\n");
    row({"plan", "ParC# s", "recovered", "complete", "checksum"});
    for (const char *Spec :
         {"seed(42);loss(0.005)", "seed(42);loss(0.01)", "seed(42);loss(0.02)",
          "seed(42);loss(0.01);corrupt(0.005)",
          "seed(42);crash(2,20s)", "seed(42);crash(2,20s,45s);loss(0.01)"}) {
      ErrorOr<fault::FaultPlan> Plan = fault::FaultPlan::parse(Spec);
      if (!Plan) {
        std::printf("bad sweep spec '%s': %s\n", Spec,
                    Plan.error().str().c_str());
        return 1;
      }
      Failures += chaosRow(Job, Reference.Checksum, Spec, *Plan);
    }
    std::printf("\nexpected shape: loss costs retries (time), never pixels; "
                "a crashed\nworker's rows are re-rendered on surviving "
                "nodes\n");
  }
  return Failures == 0 ? 0 : 1;
}
