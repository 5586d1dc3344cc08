//===- tests/WorldTest.cpp - full-stack integration via ScooppWorld -------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-stack integration through the ScooppWorld bundle: multiple
/// applications (ray farm + sieve) coexisting on one runtime, mixed grain
/// policies, and the tuned-Mono projection end to end.
///
//===----------------------------------------------------------------------===//

#include "RayWorkerGen.h"
#include "apps/ray/Farm.h"
#include "apps/sieve/Sieve.h"
#include "core/ObjectManager.h"
#include "core/World.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::scoopp;
using namespace parcs::sim;

namespace {

std::shared_ptr<const apps::ray::RayJob> tinyRayJob() {
  auto Job = std::make_shared<apps::ray::RayJob>();
  Job->SceneData = apps::ray::Scene::javaGrande(2);
  Job->Width = 32;
  Job->Height = 24;
  Job->LinesPerTask = 4;
  Job->NsPerOp = apps::ray::calibrateNsPerOp(Job->SceneData, Job->Width,
                                             Job->Height, 0.5);
  return Job;
}

TEST(WorldTest, RunMainReportsElapsedVirtualTime) {
  ParallelClassRegistry Registry;
  ScooppWorld W(2, std::move(Registry));
  SimTime Elapsed = W.runMain([](ScooppRuntime &Runtime) -> Task<void> {
    co_await Runtime.sim().delay(SimTime::milliseconds(5));
  });
  EXPECT_EQ(Elapsed, SimTime::milliseconds(5));
}

TEST(WorldTest, TwoApplicationsShareOneRuntime) {
  // The sieve pipeline and a ray farm run concurrently over the same
  // cluster, endpoints and object managers -- both must be correct, and
  // both classes' objects appear in the OM accounting.
  auto RayJob = tinyRayJob();
  auto SieveJob = std::make_shared<apps::sieve::SieveJob>();
  SieveJob->MaxN = 300;

  ParallelClassRegistry Registry;
  apps::ray::registerRayWorker(Registry, RayJob);
  apps::sieve::registerSieveClasses(Registry, SieveJob);

  ScooppWorld W(3, std::move(Registry));

  uint64_t RayChecksum = 0;
  std::vector<int32_t> Primes;
  bool RayOk = false, SieveOk = false;

  W.runMain([&](ScooppRuntime &Runtime) -> Task<void> {
    // Kick off the sieve as a concurrent activity.
    struct SieveDriver {
      static Task<void> run(ScooppRuntime &Runtime,
                            std::shared_ptr<const apps::sieve::SieveJob> Job,
                            std::vector<int32_t> &Primes, bool &Ok) {
        auto Result = co_await apps::sieve::runSievePipeline(Runtime, 2, Job);
        if (Result) {
          Primes = Result->Primes;
          Ok = true;
        }
      }
    };
    Runtime.sim().spawn(
        SieveDriver::run(Runtime, SieveJob, Primes, SieveOk));

    // Meanwhile run a 3-worker ray farm from node 0.
    std::vector<std::unique_ptr<apps::ray::RayWorkerProxy>> Workers;
    for (int I = 0; I < 3; ++I) {
      auto P = std::make_unique<apps::ray::RayWorkerProxy>(Runtime, 0);
      Error E = co_await P->create();
      EXPECT_FALSE(E) << E.str();
      Workers.push_back(std::move(P));
    }
    for (int32_t Y = 0; Y < RayJob->Height; Y += RayJob->LinesPerTask) {
      int32_t Y1 = std::min<int32_t>(Y + RayJob->LinesPerTask,
                                     RayJob->Height);
      co_await Workers[static_cast<size_t>((Y / RayJob->LinesPerTask) % 3)]
          ->render(Y, Y1);
    }
    uint64_t Sum = 0;
    for (auto &Worker : Workers) {
      auto Blob = co_await Worker->collect();
      EXPECT_TRUE(Blob.hasValue());
      if (!Blob)
        co_return;
      serial::InputArchive In(*Blob);
      uint64_t Partial = 0;
      EXPECT_TRUE(In.read(Partial));
      Sum += Partial;
    }
    RayChecksum = Sum;
    RayOk = true;
  });

  EXPECT_TRUE(RayOk);
  EXPECT_TRUE(SieveOk);
  apps::ray::RenderStats Seq =
      RayJob->SceneData.renderWhole(RayJob->Width, RayJob->Height);
  EXPECT_EQ(RayChecksum, Seq.Checksum);
  EXPECT_EQ(Primes.size(),
            apps::sieve::sequentialSieve(*SieveJob, vm::VmKind::SunJvm142)
                .Primes.size());
}

TEST(WorldTest, MixedPolicyWorldsAreIndependent) {
  // Two worlds with different grain policies run the same workload and
  // agree on the answer while differing in traffic.
  auto SieveJob = std::make_shared<apps::sieve::SieveJob>();
  SieveJob->MaxN = 400;

  auto RunWith = [&](GrainPolicy Grain, uint64_t &Messages) {
    ParallelClassRegistry Registry;
    apps::sieve::registerSieveClasses(Registry, SieveJob);
    ScooppConfig Config;
    Config.Grain = Grain;
    ScooppWorld W(3, std::move(Registry), Config);
    std::vector<int32_t> Primes;
    W.runMain([&](ScooppRuntime &Runtime) -> Task<void> {
      auto Result = co_await apps::sieve::runSievePipeline(Runtime, 0,
                                                           SieveJob);
      EXPECT_TRUE(Result.hasValue());
      if (Result)
        Primes = Result->Primes;
    });
    Messages = W.net().messagesDelivered();
    return Primes;
  };

  uint64_t FineMessages = 0, PackedMessages = 0;
  GrainPolicy Fine;
  GrainPolicy Packed;
  Packed.MaxCallsPerMessage = 16;
  auto A = RunWith(Fine, FineMessages);
  auto B = RunWith(Packed, PackedMessages);
  EXPECT_EQ(A, B);
  EXPECT_GT(FineMessages, PackedMessages);
}

TEST(WorldTest, TunedMonoWorldRunsFaster) {
  auto SieveJob = std::make_shared<apps::sieve::SieveJob>();
  SieveJob->MaxN = 600;
  // ScooppWorld runs Mono 1.1.7, so the tuned VM needs its own cluster.
  auto TimeWith = [&](vm::VmKind Vm, remoting::StackKind Stack) {
    ParallelClassRegistry Registry;
    apps::sieve::registerSieveClasses(Registry, SieveJob);
    ScooppConfig Config;
    Config.Stack = Stack;
    vm::Cluster Machines(3, Vm);
    net::Network Net(Machines.sim(), 3);
    ScooppRuntime Runtime(Machines, Net, std::move(Registry), Config);
    auto Main = [&](ScooppRuntime &Runtime) -> Task<void> {
      auto Result =
          co_await apps::sieve::runSievePipeline(Runtime, 0, SieveJob);
      EXPECT_TRUE(Result.hasValue());
    };
    Machines.sim().spawn(Main(Runtime));
    Machines.sim().run();
    return Machines.sim().now();
  };
  SimTime Paper = TimeWith(vm::VmKind::MonoVm117,
                           remoting::StackKind::MonoRemotingTcp117);
  SimTime Tuned = TimeWith(vm::VmKind::MonoTuned,
                           remoting::StackKind::MonoRemotingTuned);
  EXPECT_LT(Tuned, Paper);
}

} // namespace
