//===- tests/AppsTest.cpp - workload application tests --------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "apps/pingpong/PingPong.h"
#include "core/ObjectManager.h"
#include "apps/ray/Farm.h"
#include "apps/ray/Scene.h"
#include "apps/sieve/Sieve.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace parcs;
using namespace parcs::apps;

namespace {

//===----------------------------------------------------------------------===//
// Ray tracer scene
//===----------------------------------------------------------------------===//

TEST(SceneTest, BuildsSixtyFourSpheres) {
  ray::Scene S = ray::Scene::javaGrande(4);
  EXPECT_EQ(S.sphereCount(), 64u);
}

TEST(SceneTest, RenderingIsDeterministic) {
  ray::Scene S = ray::Scene::javaGrande(3);
  ray::LineResult A = S.renderLine(10, 64, 48);
  ray::LineResult B = S.renderLine(10, 64, 48);
  EXPECT_EQ(A.Rgb, B.Rgb);
  EXPECT_EQ(A.Ops, B.Ops);
}

TEST(SceneTest, LinesDifferAndCountOps) {
  ray::Scene S = ray::Scene::javaGrande(3);
  ray::LineResult Top = S.renderLine(0, 64, 48);
  ray::LineResult Mid = S.renderLine(24, 64, 48);
  EXPECT_GT(Top.Ops, 0u);
  EXPECT_GT(Mid.Ops, Top.Ops) << "centre lines hit spheres: more work";
  EXPECT_NE(Top.Rgb, Mid.Rgb);
}

TEST(SceneTest, WholeFrameAggregatesLines) {
  ray::Scene S = ray::Scene::javaGrande(2);
  int W = 32, H = 24;
  ray::RenderStats Whole = S.renderWhole(W, H);
  uint64_t Ops = 0, Sum = 0;
  for (int Y = 0; Y < H; ++Y) {
    ray::LineResult Line = S.renderLine(Y, W, H);
    Ops += Line.Ops;
    Sum += ray::Scene::lineChecksum(Line.Rgb);
  }
  EXPECT_EQ(Whole.TotalOps, Ops);
  EXPECT_EQ(Whole.Checksum, Sum);
}

TEST(SceneTest, DeeperReflectionCostsMore) {
  ray::Scene S = ray::Scene::javaGrande(3);
  EXPECT_GT(S.renderLine(24, 64, 48, /*MaxDepth=*/4).Ops,
            S.renderLine(24, 64, 48, /*MaxDepth=*/0).Ops);
}

// Whole-frame goldens: the pixels and the op count that drives virtual time.
// Recorded with x86-64 SSE2 doubles (the default x86-64 target, no x87 and
// no FMA contraction); identical at -O0, -O2 and -O3.  An intersection
// speed-up must keep every one of them.
TEST(SceneTest, GoldenFrames) {
  struct Golden {
    int GridSide, Width, Height, MaxDepth;
    uint64_t TotalOps, Checksum;
  };
  const Golden Frames[] = {
      {1, 64, 48, 3, 3321, 0x1db5c899c458fa38ULL},
      {2, 40, 30, 3, 10652, 0x211d6752522e28aeULL},
      {3, 64, 48, 0, 90095, 0x4978ccf0898de318ULL},
      {3, 64, 48, 4, 106665, 0xce7435b31b7d86cdULL},
      {4, 100, 100, 3, 1178516, 0x72180094f7017f0cULL},
      {5, 64, 48, 3, 870066, 0x060caca93d1129c5ULL},
      {5, 97, 31, 4, 585913, 0x12e4f7c5ecb78568ULL},
      {4, 500, 500, 3, 29127548, 0xc30fe8afaebef719ULL},
  };
  for (const Golden &G : Frames) {
    SCOPED_TRACE(testing::Message()
                 << "GridSide " << G.GridSide << ", " << G.Width << "x"
                 << G.Height << ", MaxDepth " << G.MaxDepth);
    ray::RenderStats Stats = ray::Scene::javaGrande(G.GridSide)
                                 .renderWhole(G.Width, G.Height, G.MaxDepth);
    EXPECT_EQ(Stats.TotalOps, G.TotalOps);
    EXPECT_EQ(Stats.Checksum, G.Checksum);
  }
}

TEST(SceneTest, CalibrationHitsTarget) {
  ray::Scene S = ray::Scene::javaGrande(2);
  double NsPerOp = ray::calibrateNsPerOp(S, 40, 30, 10.0);
  ray::RenderStats Stats = S.renderWhole(40, 30);
  EXPECT_NEAR(static_cast<double>(Stats.TotalOps) * NsPerOp * 1e-9, 10.0,
              1e-6);
}

//===----------------------------------------------------------------------===//
// Ray farms (Fig. 9 machinery, small frames)
//===----------------------------------------------------------------------===//

std::shared_ptr<const ray::RayJob> smallJob() {
  auto Job = std::make_shared<ray::RayJob>();
  Job->SceneData = ray::Scene::javaGrande(2);
  Job->Width = 48;
  Job->Height = 36;
  Job->LinesPerTask = 6;
  // Small virtual cost so tests run fast in virtual time too.
  Job->NsPerOp = ray::calibrateNsPerOp(Job->SceneData, Job->Width,
                                       Job->Height, /*Target=*/2.0);
  return Job;
}

TEST(RayFarmTest, ScooppChecksumMatchesSequential) {
  auto Job = smallJob();
  ray::SequentialResult Seq =
      ray::sequentialRender(*Job, vm::VmKind::SunJvm142);
  ray::FarmResult Farm = ray::runScooppRayFarm(Job, {/*Processors=*/4});
  EXPECT_EQ(Farm.Checksum, Seq.Checksum) << "the farm must render the same "
                                            "image";
  EXPECT_EQ(Farm.PixelBytes,
            static_cast<uint64_t>(Job->Width) * Job->Height * 3);
  EXPECT_GT(Farm.Elapsed, sim::SimTime());
}

TEST(RayFarmTest, RmiChecksumMatchesSequential) {
  auto Job = smallJob();
  ray::SequentialResult Seq =
      ray::sequentialRender(*Job, vm::VmKind::SunJvm142);
  ray::FarmResult Farm = ray::runRmiRayFarm(Job, /*Processors=*/4);
  EXPECT_EQ(Farm.Checksum, Seq.Checksum);
  EXPECT_EQ(Farm.PixelBytes,
            static_cast<uint64_t>(Job->Width) * Job->Height * 3);
}

TEST(RayFarmTest, MoreProcessorsRunFaster) {
  auto Job = smallJob();
  ray::FarmResult P1 = ray::runScooppRayFarm(Job, {1});
  ray::FarmResult P4 = ray::runScooppRayFarm(Job, {4});
  EXPECT_LT(P4.Elapsed, P1.Elapsed);
  // Speed-up is sub-linear but real.
  EXPECT_GT(P1.Elapsed.toSecondsF() / P4.Elapsed.toSecondsF(), 1.8);
}

TEST(RayFarmTest, ParcsSlowerThanRmiAtEqualProcessors) {
  // Fig. 9: ParC# sits above Java RMI, dominated by the Mono VM's 1.4x
  // sequential penalty.
  auto Job = smallJob();
  ray::FarmResult Parcs = ray::runScooppRayFarm(Job, {2});
  ray::FarmResult Rmi = ray::runRmiRayFarm(Job, 2);
  EXPECT_GT(Parcs.Elapsed, Rmi.Elapsed);
  double Ratio = Parcs.Elapsed.toSecondsF() / Rmi.Elapsed.toSecondsF();
  EXPECT_GT(Ratio, 1.2);
  EXPECT_LT(Ratio, 1.9);
}

TEST(RayFarmTest, SequentialVmRatiosMatchPaper) {
  auto Job = smallJob();
  double Jvm = ray::sequentialRender(*Job, vm::VmKind::SunJvm142).Seconds;
  double Mono = ray::sequentialRender(*Job, vm::VmKind::MonoVm117).Seconds;
  double Clr = ray::sequentialRender(*Job, vm::VmKind::MsClr).Seconds;
  EXPECT_NEAR(Mono / Jvm, 1.4, 1e-9);
  EXPECT_NEAR(Clr / Jvm, 1.1, 1e-9);
}

TEST(RayFarmTest, DeterministicAcrossRuns) {
  auto Job = smallJob();
  ray::FarmResult A = ray::runScooppRayFarm(Job, {3});
  ray::FarmResult B = ray::runScooppRayFarm(Job, {3});
  EXPECT_EQ(A.Elapsed, B.Elapsed);
  EXPECT_EQ(A.Checksum, B.Checksum);
}


TEST(RayFarmTest, MpiFarmChecksumMatchesSequential) {
  auto Job = smallJob();
  ray::SequentialResult Seq =
      ray::sequentialRender(*Job, vm::VmKind::SunJvm142);
  ray::FarmResult Farm = ray::runMpiRayFarm(Job, /*Processors=*/4);
  EXPECT_EQ(Farm.Checksum, Seq.Checksum);
  EXPECT_EQ(Farm.PixelBytes,
            static_cast<uint64_t>(Job->Width) * Job->Height * 3);
}

TEST(RayFarmTest, StackOrderingMpiFastest) {
  auto Job = smallJob();
  ray::FarmResult Mpi = ray::runMpiRayFarm(Job, 2);
  ray::FarmResult Rmi = ray::runRmiRayFarm(Job, 2);
  ray::FarmResult Parcs = ray::runScooppRayFarm(Job, {2});
  EXPECT_LT(Mpi.Elapsed, Rmi.Elapsed);
  EXPECT_LT(Rmi.Elapsed, Parcs.Elapsed);
}

TEST(RayFarmTest, MpiFarmDeterministic) {
  auto Job = smallJob();
  ray::FarmResult A = ray::runMpiRayFarm(Job, 3);
  ray::FarmResult B = ray::runMpiRayFarm(Job, 3);
  EXPECT_EQ(A.Elapsed, B.Elapsed);
  EXPECT_EQ(A.Checksum, B.Checksum);
}

//===----------------------------------------------------------------------===//
// Prime sieve
//===----------------------------------------------------------------------===//

std::vector<int32_t> referencePrimes(int32_t MaxN) {
  std::vector<int32_t> Primes;
  for (int32_t N = 2; N <= MaxN; ++N) {
    bool Composite = false;
    for (int32_t P : Primes) {
      if (static_cast<int64_t>(P) * P > N)
        break;
      if (N % P == 0) {
        Composite = true;
        break;
      }
    }
    if (!Composite)
      Primes.push_back(N);
  }
  return Primes;
}

TEST(SieveTest, SequentialSieveIsCorrect) {
  sieve::SieveJob Job;
  Job.MaxN = 2000;
  auto Result = sieve::sequentialSieve(Job, vm::VmKind::SunJvm142);
  EXPECT_EQ(Result.Primes, referencePrimes(2000));
  EXPECT_GT(Result.Tests, 0u);
  EXPECT_GT(Result.Seconds, 0.0);
}

TEST(SieveTest, DivisorAgreesWithRemainder) {
  // 2^31 - 1 and 2^31 - 19 are the two largest primes below 2^31.
  for (uint32_t P : {1u, 2u, 3u, 2147483629u, uint32_t(INT32_MAX)}) {
    sieve::Divisor D(P);
    for (uint32_t N : {0u, P - 1, P, P + 1, uint32_t(INT32_MAX)})
      EXPECT_EQ(D.divides(N), N % P == 0) << N << " % " << P;
  }
  for (uint32_t P = 1; P <= 64; ++P) {
    sieve::Divisor D(P);
    for (uint32_t N = 0; N < 4096; ++N)
      ASSERT_EQ(D.divides(N), N % P == 0) << N << " % " << P;
  }
}

TEST(SieveTest, VmComparisonMatchesPaper) {
  // "running another application, a prime number sieve, the Mono
  // execution time is about the same as the JVM".
  sieve::SieveJob Job;
  Job.MaxN = 5000;
  double Jvm = sieve::sequentialSieve(Job, vm::VmKind::SunJvm142).Seconds;
  double Mono = sieve::sequentialSieve(Job, vm::VmKind::MonoVm117).Seconds;
  EXPECT_DOUBLE_EQ(Mono / Jvm, 1.0);
}

struct SieveWorld {
  SieveWorld(std::shared_ptr<const sieve::SieveJob> Job,
             scoopp::ScooppConfig Config = scoopp::ScooppConfig(),
             int Nodes = 3)
      : Machines(Nodes, vm::VmKind::MonoVm117), Net(Machines.sim(), Nodes),
        Runtime(Machines, Net, [&Job] {
          scoopp::ParallelClassRegistry Registry;
          sieve::registerSieveClasses(Registry, Job);
          return Registry;
        }(), Config) {}

  vm::Cluster Machines;
  net::Network Net;
  scoopp::ScooppRuntime Runtime;
};

ErrorOr<sieve::PipelineResult>
runPipelineToCompletion(SieveWorld &W, std::shared_ptr<const sieve::SieveJob> Job) {
  ErrorOr<sieve::PipelineResult> Out(sieve::PipelineResult{});
  struct Driver {
    static sim::Task<void> run(SieveWorld &W,
                               std::shared_ptr<const sieve::SieveJob> Job,
                               ErrorOr<sieve::PipelineResult> &Out) {
      Out = co_await sieve::runSievePipeline(W.Runtime, 0, Job);
    }
  };
  W.Machines.sim().spawn(Driver::run(W, Job, Out));
  W.Machines.sim().run();
  return Out;
}

TEST(SieveTest, PipelineMatchesReference) {
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = 600;
  Job->FilterCapacity = 8;
  Job->BatchSize = 16;
  SieveWorld W(Job);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(600));
  // pi(600) = 109 primes over capacity-8 filters -> a 14-filter chain.
  EXPECT_EQ(Result->FilterCount, 14);
}

class SieveParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SieveParamTest, PipelineCorrectAcrossShapes) {
  auto [MaxN, Capacity, Batch] = GetParam();
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = MaxN;
  Job->FilterCapacity = Capacity;
  Job->BatchSize = Batch;
  SieveWorld W(Job);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(MaxN));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SieveParamTest,
    ::testing::Values(std::make_tuple(100, 4, 8),
                      std::make_tuple(300, 1, 16),
                      std::make_tuple(300, 16, 4),
                      std::make_tuple(1000, 8, 32),
                      std::make_tuple(50, 100, 5),
                      std::make_tuple(200, 8, 1),
                      std::make_tuple(2, 8, 8),
                      std::make_tuple(3, 1, 1)));

TEST(SieveTest, AggregationPreservesCorrectness) {
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = 500;
  scoopp::ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 8;
  SieveWorld W(Job, Config);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(500));
}

TEST(SieveTest, AgglomerationPreservesCorrectness) {
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = 500;
  scoopp::ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  SieveWorld W(Job, Config);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(500));
  // Everything was created on the driver's node.
  EXPECT_EQ(W.Runtime.om(0).hostedObjects(), Result->FilterCount);
  EXPECT_EQ(W.Runtime.stats().RemoteCreations, 0u);
  EXPECT_EQ(W.Runtime.stats().LocalCreations,
            static_cast<uint64_t>(Result->FilterCount));
}

TEST(SieveTest, AdaptiveModePreservesCorrectness) {
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = 800;
  scoopp::ScooppConfig Config;
  Config.Grain.Adaptive = true;
  Config.Grain.MaxCallsPerMessage = 16;
  SieveWorld W(Job, Config);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(800));
}

TEST(SieveTest, AggregationCutsMessageCount) {
  auto CountMessages = [](int Factor) {
    auto Job = std::make_shared<sieve::SieveJob>();
    Job->MaxN = 400;
    Job->BatchSize = 4;
    scoopp::ScooppConfig Config;
    Config.Grain.MaxCallsPerMessage = Factor;
    SieveWorld W(Job, Config);
    auto Result = runPipelineToCompletion(W, Job);
    EXPECT_TRUE(Result.hasValue());
    return W.Net.messagesDelivered();
  };
  EXPECT_GT(CountMessages(1), CountMessages(8));
}

//===----------------------------------------------------------------------===//
// Ping-pong kernels (Fig. 8 machinery, spot checks)
//===----------------------------------------------------------------------===//

TEST(PingPongTest, LatencyOrderingMatchesPaper) {
  int Rounds = 20;
  size_t Small = 4;
  double Mpi = pingpong::runMpiPingPong(Small, Rounds).OneWayLatencyUs;
  double Mono =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingTcp117,
                                    Small, Rounds)
          .OneWayLatencyUs;
  double Nio = pingpong::runRemotingPingPong(remoting::StackKind::JavaNio,
                                             Small, Rounds)
                   .OneWayLatencyUs;
  double Rmi = pingpong::runRemotingPingPong(remoting::StackKind::JavaRmi,
                                             Small, Rounds)
                   .OneWayLatencyUs;
  EXPECT_LT(Mpi, Nio);
  EXPECT_LT(Nio, Rmi);
  EXPECT_LT(Mono, Rmi);
  EXPECT_NEAR(Mpi, 100.0, 15.0);
  EXPECT_NEAR(Mono, 273.0, 40.0);
  EXPECT_NEAR(Rmi, 520.0, 60.0);
  // "This latency is very close to the performance of the Java nio
  // package."
  EXPECT_NEAR(Nio / Mono, 1.0, 0.25);
}

TEST(PingPongTest, LargeMessageBandwidthOrderingMatchesPaper) {
  int Rounds = 3;
  size_t Large = 1 << 20;
  double Mpi = pingpong::runMpiPingPong(Large, Rounds).BandwidthMBps;
  double Rmi = pingpong::runRemotingPingPong(remoting::StackKind::JavaRmi,
                                             Large, Rounds)
                   .BandwidthMBps;
  double Mono =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingTcp117,
                                    Large, Rounds)
          .BandwidthMBps;
  double Mono105 =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingTcp105,
                                    Large, Rounds)
          .BandwidthMBps;
  double Http =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingHttp117,
                                    Large, Rounds)
          .BandwidthMBps;
  // Fig. 8a: MPI > Java RMI > Mono.  Fig. 8b: 1.1.7 >> 1.0.5, Http worst
  // or comparable to 1.0.5.
  EXPECT_GT(Mpi, Rmi);
  EXPECT_GT(Rmi, Mono);
  EXPECT_GT(Mono, Mono105);
  EXPECT_GT(Mono, Http);
  EXPECT_LT(Mpi, 11.9); // Below the wire-goodput ceiling.
}

TEST(PingPongTest, BandwidthGrowsWithMessageSize) {
  int Rounds = 5;
  auto Stack = remoting::StackKind::MonoRemotingTcp117;
  double B1k = pingpong::runRemotingPingPong(Stack, 1 << 10, Rounds)
                   .BandwidthMBps;
  double B64k = pingpong::runRemotingPingPong(Stack, 1 << 16, Rounds)
                    .BandwidthMBps;
  double B1m = pingpong::runRemotingPingPong(Stack, 1 << 20, Rounds)
                   .BandwidthMBps;
  EXPECT_LT(B1k, B64k);
  EXPECT_LT(B64k, B1m);
}

TEST(PingPongTest, ParcsPenaltyNotNoticeable) {
  int Rounds = 20;
  double Raw =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingTcp117,
                                    1024, Rounds)
          .OneWayLatencyUs;
  double Parcs = pingpong::runScooppPingPong(1024, Rounds).OneWayLatencyUs;
  EXPECT_GT(Parcs, Raw);
  EXPECT_LT((Parcs - Raw) / Raw, 0.05);
}

} // namespace
