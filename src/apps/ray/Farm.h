//===- apps/ray/Farm.h - Parallel ray tracer farms --------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's high-level experiment (Fig. 9): the Java Grande ray tracer
/// "parallelised using a farming approach, where each worker renders
/// several lines from the generated image", in two builds:
///
///  - ParC# farm: workers are SCOOPP parallel objects on a Mono 1.1.7
///    cluster; the master issues asynchronous render calls through proxy
///    objects and collects results synchronously;
///  - Java RMI farm: workers are unicast remote objects on a Sun JVM
///    cluster; asynchronous behaviour "must be explicitly programmed
///    using threads", so the master spawns one driver thread per worker
///    issuing synchronous RMI calls.
///
/// Both farms really render (checksums are compared against a sequential
/// render) and charge virtual CPU per counted operation, scaled by the
/// executing VM's floating-point multiplier -- which is how the paper's
/// "C# sequential time is 40% superior" shows up in the curves.
///
/// The worker class is declared in ray_worker.pci, and its proxy and
/// skeleton are generated at build time (RayWorkerGen.h).  Farm.cpp
/// implements the skeleton once; the ParC# farm calls it through the
/// generated proxy and the RMI farm through a plain remote handle.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_APPS_RAY_FARM_H
#define PARCS_APPS_RAY_FARM_H

#include "apps/ray/Scene.h"
#include "core/Scoopp.h"
#include "fault/FaultPlan.h"
#include "rmi/Rmi.h"

#include <memory>

namespace parcs::apps::ray {

/// Immutable job description shared by every worker.
struct RayJob {
  Scene SceneData;
  int Width = 500;
  int Height = 500;
  /// Reference-VM (Sun JVM) cost of one counted ray operation.
  double NsPerOp = 1.0;
  /// Lines per render task (the "several lines" each worker gets).
  int LinesPerTask = 25;
};

/// Result of one farm run.
struct FarmResult {
  sim::SimTime Elapsed;
  uint64_t Checksum = 0;
  uint64_t PixelBytes = 0;
  /// Rows re-rendered by the recovery loop after a worker was lost
  /// (SCOOPP farm only; 0 on a fault-free run).
  int RowsRecovered = 0;
  /// False when some rows could not be produced within the recovery
  /// budget (the checksum then covers a partial image).
  bool Complete = true;
};

/// Registers the RayWorker parallel class (ray_worker.pci; its proxy is
/// RayWorkerProxy in the generated RayWorkerGen.h) backed by \p Job.
void registerRayWorker(scoopp::ParallelClassRegistry &Registry,
                       std::shared_ptr<const RayJob> Job);

/// One ParC# farm run (runScooppRayFarm); deterministic.
struct FarmConfig {
  /// "Processors" on the paper's x-axis; workers = processors, two per
  /// dual-CPU node.
  int Processors = 1;
  /// Dispatch-pool worker cap per endpoint (0 = the VM's default; the
  /// Mono pool cap is what Section 4 blames for lost overlap).
  int DispatchWorkers = 0;
  /// VM and remoting stack of the ParC# side (defaults are the paper's
  /// platform; MonoTuned projects the paper's future work).
  vm::VmKind Vm = vm::VmKind::MonoVm117;
  remoting::StackKind Stack = remoting::StackKind::MonoRemotingTcp117;
  /// Fault plan injected into the SCOOPP farm's network (empty = no
  /// injector attached and no retry policy; the fault-free event stream
  /// is untouched).  A non-empty plan also installs an escalating-deadline
  /// retry policy (12 attempts from a 50 ms window, doubling), so the farm
  /// survives loss and crashes without starving long collect() calls.
  fault::FaultPlan Faults{};
};

/// Runs the ParC# farm on a fresh Mono 1.1.7 cluster and returns the
/// elapsed virtual time.  \p Grain controls aggregation/agglomeration
/// (Fig. 9 uses the defaults).
FarmResult runScooppRayFarm(std::shared_ptr<const RayJob> Job,
                            FarmConfig Config,
                            scoopp::GrainPolicy Grain = scoopp::GrainPolicy());

/// Runs the Java RMI farm on \p Processors processors of fresh Sun JVMs.
FarmResult runRmiRayFarm(std::shared_ptr<const RayJob> Job, int Processors);

/// Extension baseline: the traditional C/MPI farm the paper's
/// introduction contrasts with object-oriented parallelism -- explicit
/// message passing, packed buffers, native-code execution.  Rank 0 is the
/// master; ranks 1..Processors render (so the world holds one extra
/// rank).
FarmResult runMpiRayFarm(std::shared_ptr<const RayJob> Job, int Processors);

/// Sequential execution time of the whole frame under \p Vm (the paper's
/// VM comparison), plus the reference checksum.
struct SequentialResult {
  double Seconds = 0;
  uint64_t Checksum = 0;
};
SequentialResult sequentialRender(const RayJob &Job, vm::VmKind Vm);

} // namespace parcs::apps::ray

#endif // PARCS_APPS_RAY_FARM_H
