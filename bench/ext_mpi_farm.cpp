//===- bench/ext_mpi_farm.cpp - X2: three-stack farm comparison -----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension experiment: the farm the paper's introduction alludes to but
/// never measures -- "traditional parallel computing is based on
/// languages such as C/C++ ... message passing libraries such as MPI" --
/// run side by side with the paper's two farms.  Shows the price of the
/// high-level model: MPI (native code, packed buffers) is fastest, Java
/// RMI next, ParC#/Mono last, with all three rendering the identical
/// image.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "apps/ray/Farm.h"

using namespace parcs;
using namespace parcs::apps::ray;
using namespace parcs::bench;

int main() {
  banner("X2 (extension)", "ray farm: MPI vs Java RMI vs ParC#, 500x500");

  auto Job = std::make_shared<RayJob>();
  Job->SceneData = Scene::javaGrande(4);
  Job->Width = 500;
  Job->Height = 500;
  Job->LinesPerTask = 25;
  Job->NsPerOp =
      calibrateNsPerOp(Job->SceneData, Job->Width, Job->Height, 100.0);
  SequentialResult Reference =
      sequentialRender(*Job, vm::VmKind::SunJvm142);

  row({"processors", "MPI s", "JavaRMI s", "ParC# s"});
  for (int P = 1; P <= 6; ++P) {
    FarmConfig Config;
    Config.Processors = P;
    FarmResult Mpi = runMpiRayFarm(Job, P);
    FarmResult Rmi = runRmiRayFarm(Job, P);
    FarmResult Parcs = runScooppRayFarm(Job, Config);
    bool Ok = Mpi.Checksum == Reference.Checksum &&
              Rmi.Checksum == Reference.Checksum &&
              Parcs.Checksum == Reference.Checksum;
    if (!Ok) {
      std::printf("CHECKSUM MISMATCH at P=%d\n", P);
      return 1;
    }
    row({std::to_string(P), fmt(Mpi.Elapsed.toSecondsF(), 1),
         fmt(Rmi.Elapsed.toSecondsF(), 1),
         fmt(Parcs.Elapsed.toSecondsF(), 1)});
  }
  std::printf("\nexpected shape: MPI < Java RMI < ParC# (native vs JVM vs "
              "Mono execution\ncost); identical checksums across all "
              "three\n");
  return 0;
}
