//===- examples/raytracer_farm.cpp - the paper's Fig. 9 workload ----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's high-level application: the Java Grande ray tracer,
/// farm-parallelised over ParC# parallel objects, compared against the
/// Java RMI build.  Renders a real image (written to raytracer_out.ppm),
/// verifies the farms produced the same pixels as a sequential render
/// (exit 1 if any farm differs), and prints the virtual execution times.
///
/// Usage: raytracer_farm [width height processors]   (default 160x120, 4)
///
//===----------------------------------------------------------------------===//

#include "apps/ray/Farm.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>

using namespace parcs;
using namespace parcs::apps::ray;

static void writePpm(const Scene &S, int Width, int Height,
                     const char *Path) {
  std::FILE *Out = std::fopen(Path, "wb");
  if (!Out) {
    std::printf("cannot write %s\n", Path);
    return;
  }
  std::fprintf(Out, "P6\n%d %d\n255\n", Width, Height);
  for (int Y = 0; Y < Height; ++Y) {
    LineResult Line = S.renderLine(Y, Width, Height);
    std::fwrite(Line.Rgb.data(), 1, Line.Rgb.size(), Out);
  }
  std::fclose(Out);
  std::printf("wrote %s (%dx%d)\n", Path, Width, Height);
}

int main(int Argc, char **Argv) {
  int Width = 160, Height = 120, Processors = 4;
  if (Argc >= 3) {
    Width = std::atoi(Argv[1]);
    Height = std::atoi(Argv[2]);
  }
  if (Argc >= 4)
    Processors = std::atoi(Argv[3]);
  if (Width <= 0 || Height <= 0 || Processors <= 0) {
    std::printf("usage: raytracer_farm [width height processors]\n");
    return 1;
  }

  auto Job = std::make_shared<RayJob>();
  Job->SceneData = Scene::javaGrande(4);
  Job->Width = Width;
  Job->Height = Height;
  Job->LinesPerTask = std::max(1, Height / 20);
  // Scale the virtual cost as if this were the paper's 500x500 / 100 s
  // frame.
  Job->NsPerOp = calibrateNsPerOp(Job->SceneData, Width, Height,
                                  100.0 * (static_cast<double>(Width) *
                                           Height) /
                                      (500.0 * 500.0));

  SequentialResult Seq = sequentialRender(*Job, vm::VmKind::SunJvm142);
  std::printf("sequential (Sun JVM): %.1f virtual seconds\n", Seq.Seconds);

  FarmConfig Config;
  Config.Processors = Processors;
  FarmResult Parcs = runScooppRayFarm(Job, Config);
  FarmResult Rmi = runRmiRayFarm(Job, Processors);

  // The same farm with call aggregation on: render calls to a worker are
  // packed up to 4 per wire message, trading call latency for framing.
  scoopp::GrainPolicy Grain;
  Grain.MaxCallsPerMessage = 4;
  FarmResult Agg = runScooppRayFarm(Job, Config, Grain);

  std::printf("ParC# farm (%d processors): %.1f s  [checksum %s]\n",
              Processors, Parcs.Elapsed.toSecondsF(),
              Parcs.Checksum == Seq.Checksum ? "ok" : "MISMATCH");
  std::printf("ParC# farm, aggregation x4: %.1f s  [checksum %s]\n",
              Agg.Elapsed.toSecondsF(),
              Agg.Checksum == Seq.Checksum ? "ok" : "MISMATCH");
  std::printf("Java RMI farm (%d processors): %.1f s  [checksum %s]\n",
              Processors, Rmi.Elapsed.toSecondsF(),
              Rmi.Checksum == Seq.Checksum ? "ok" : "MISMATCH");
  std::printf("ParC#/RMI ratio: %.2f (paper: ~1.4 from the Mono VM)\n",
              Parcs.Elapsed.toSecondsF() / Rmi.Elapsed.toSecondsF());

  writePpm(Job->SceneData, Width, Height, "raytracer_out.ppm");
  if (!trace::enabled())
    std::printf("hint: PARCS_TRACE=ray.trace.json %s %d %d %d writes a "
                "Chrome/Perfetto trace of the farms\n",
                Argv[0], Width, Height, Processors);
  bool Match = Parcs.Checksum == Seq.Checksum &&
               Agg.Checksum == Seq.Checksum && Rmi.Checksum == Seq.Checksum;
  return Match ? 0 : 1;
}
