//===- tests/VmTest.cpp - VM / node / thread pool tests -------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "vm/Calibration.h"
#include "vm/Cluster.h"
#include "vm/Node.h"
#include "vm/ThreadPool.h"
#include "vm/VmKind.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::sim;
using namespace parcs::vm;

namespace {

SimTime ms(int64_t N) { return SimTime::milliseconds(N); }

//===----------------------------------------------------------------------===//
// Cost models
//===----------------------------------------------------------------------===//

TEST(VmKindTest, PaperRatiosHold) {
  // Section 4: Mono FP code costs 40% more than the Sun JVM, MS CLR 10%
  // more, and the integer sieve is "about the same".
  const VmCostModel &Jvm = vmCostModel(VmKind::SunJvm142);
  const VmCostModel &Mono = vmCostModel(VmKind::MonoVm117);
  const VmCostModel &Clr = vmCostModel(VmKind::MsClr);
  EXPECT_NEAR(Mono.FpMultiplier / Jvm.FpMultiplier, 1.4, 1e-9);
  EXPECT_NEAR(Clr.FpMultiplier / Jvm.FpMultiplier, 1.1, 1e-9);
  EXPECT_NEAR(Mono.IntMultiplier / Jvm.IntMultiplier, 1.0, 1e-9);
}

TEST(VmKindTest, Mono105SlowerThan117) {
  EXPECT_GT(vmCostModel(VmKind::MonoVm105).FpMultiplier,
            vmCostModel(VmKind::MonoVm117).FpMultiplier);
}

TEST(VmKindTest, NamesAreStable) {
  EXPECT_STREQ(vmKindName(VmKind::MonoVm117), "Mono 1.1.7");
  EXPECT_STREQ(vmKindName(VmKind::SunJvm142), "Sun JVM 1.4.2");
}

TEST(VmKindTest, WorkMultiplierSelectsKind) {
  const VmCostModel &Mono = vmCostModel(VmKind::MonoVm117);
  EXPECT_EQ(workMultiplier(Mono, WorkKind::FloatingPoint),
            Mono.FpMultiplier);
  EXPECT_EQ(workMultiplier(Mono, WorkKind::Integer), Mono.IntMultiplier);
  EXPECT_EQ(workMultiplier(Mono, WorkKind::Allocation),
            Mono.AllocMultiplier);
}

TEST(VmKindTest, MonoPoolSmallerThanJvm) {
  EXPECT_LT(vmCostModel(VmKind::MonoVm117).ThreadPoolMax,
            vmCostModel(VmKind::SunJvm142).ThreadPoolMax);
}


TEST(VmKindTest, TunedProjectionSitsBetweenJvmAndMono) {
  const VmCostModel &Tuned = vmCostModel(VmKind::MonoTuned);
  EXPECT_GT(Tuned.FpMultiplier, vmCostModel(VmKind::SunJvm142).FpMultiplier);
  EXPECT_LT(Tuned.FpMultiplier, vmCostModel(VmKind::MonoVm117).FpMultiplier);
  EXPECT_GT(Tuned.ThreadPoolMax, vmCostModel(VmKind::MonoVm117).ThreadPoolMax);
}

//===----------------------------------------------------------------------===//
// Node compute scheduling
//===----------------------------------------------------------------------===//

Task<void> burn(Node &N, SimTime Cpu, SimTime &DoneAt) {
  co_await N.compute(Cpu);
  DoneAt = N.sim().now();
}

TEST(NodeTest, SingleThreadRunsAtFullSpeed) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/1);
  SimTime Done;
  Sim.spawn(burn(N, ms(100), Done));
  Sim.run();
  EXPECT_EQ(Done, ms(100));
  EXPECT_EQ(N.busyTime(), ms(100));
}

TEST(NodeTest, TwoThreadsOnOneCoreTimeshare) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/1);
  SimTime DoneA, DoneB;
  Sim.spawn(burn(N, ms(100), DoneA));
  Sim.spawn(burn(N, ms(100), DoneB));
  Sim.run();
  // Round-robin: both finish around 200 ms (within one quantum of each
  // other), not one at 100 and one at 200.
  EXPECT_GE(DoneA, ms(190));
  EXPECT_GE(DoneB, ms(190));
  EXPECT_LE(DoneA, ms(200));
  EXPECT_LE(DoneB, ms(200));
}

TEST(NodeTest, TwoThreadsOnTwoCoresRunConcurrently) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/2);
  SimTime DoneA, DoneB;
  Sim.spawn(burn(N, ms(100), DoneA));
  Sim.spawn(burn(N, ms(100), DoneB));
  Sim.run();
  EXPECT_EQ(DoneA, ms(100));
  EXPECT_EQ(DoneB, ms(100));
  EXPECT_EQ(N.busyTime(), ms(200));
}

TEST(NodeTest, ZeroComputeCompletesImmediately) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp);
  SimTime Done = SimTime::seconds(-1);
  Sim.spawn(burn(N, SimTime(), Done));
  Sim.run();
  EXPECT_EQ(Done, SimTime());
}

TEST(NodeTest, ComputeWorkAppliesVmMultiplier) {
  Simulator Sim;
  Node Mono(Sim, 0, VmKind::MonoVm117, 1);
  Node Jvm(Sim, 1, VmKind::SunJvm142, 1);
  SimTime MonoDone, JvmDone;
  struct Proc {
    static Task<void> run(Node &N, SimTime &Done) {
      co_await N.computeWork(WorkKind::FloatingPoint, ms(100));
      Done = N.sim().now();
    }
  };
  Sim.spawn(Proc::run(Mono, MonoDone));
  Sim.spawn(Proc::run(Jvm, JvmDone));
  Sim.run();
  EXPECT_EQ(JvmDone, ms(100));
  EXPECT_EQ(MonoDone, ms(140)); // 1.4x
}

TEST(NodeTest, FairnessManyThreads) {
  // 4 equal jobs on 2 cores must all complete at ~2x the solo time.
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, 2);
  SimTime Done[4];
  for (auto &D : Done)
    Sim.spawn(burn(N, ms(50), D));
  Sim.run();
  for (const auto &D : Done) {
    EXPECT_GE(D, ms(90));
    EXPECT_LE(D, ms(100));
  }
}

TEST(NodeTest, StartThreadChargesCreationCost) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, 1);
  SimTime BodyRanAt;
  struct Body {
    static Task<void> run(Simulator &Sim, SimTime &At) {
      At = Sim.now();
      co_return;
    }
  };
  N.startThread(Body::run(Sim, BodyRanAt));
  Sim.run();
  EXPECT_EQ(BodyRanAt, calib::ThreadCreateCost);
}

TEST(NodeTest, FreedCoreGoesToQueuedChargesInFifoOrder) {
  // One core (10 ms quantum).  A 5 ms holder takes it; a multi-slice, a
  // single-slice and another multi-slice charge queue behind it, in that
  // order.  Each freed core goes to the oldest waiter, and a charge with
  // slices left queues again behind the waiters it yields to:
  //   [0,5) H  [5,15) A  [15,18) B  [18,28) C  [28,38) A  [38,40) C
  //   [40,45) A
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/1);
  SimTime DoneH, DoneA, DoneB, DoneC;
  Sim.spawn(burn(N, ms(5), DoneH));
  Sim.spawn(burn(N, ms(25), DoneA));
  Sim.spawn(burn(N, ms(3), DoneB));
  Sim.spawn(burn(N, ms(12), DoneC));
  struct Probe {
    int64_t AtMs;
    int Runnable;
    SimTime Busy;
  };
  std::vector<Probe> Probes = {{1, 4, SimTime()}, {16, 3, ms(15)},
                               {20, 2, ms(18)},   {30, 2, ms(28)},
                               {39, 2, ms(38)},   {41, 1, ms(40)}};
  std::vector<std::pair<int, SimTime>> Seen;
  for (const Probe &P : Probes)
    Sim.schedule(ms(P.AtMs), [&N, &Seen] {
      Seen.emplace_back(N.runnableThreads(), N.busyTime());
    });
  Sim.run();

  EXPECT_EQ(DoneH, ms(5));
  EXPECT_EQ(DoneA, ms(45));
  EXPECT_EQ(DoneB, ms(18));
  EXPECT_EQ(DoneC, ms(40));
  EXPECT_EQ(N.busyTime(), ms(45));
  EXPECT_EQ(N.runnableThreads(), 0);
  ASSERT_EQ(Seen.size(), Probes.size());
  for (size_t I = 0; I < Probes.size(); ++I) {
    SCOPED_TRACE(Probes[I].AtMs);
    EXPECT_EQ(Seen[I].first, Probes[I].Runnable);
    EXPECT_EQ(Seen[I].second, Probes[I].Busy);
  }
}

//===----------------------------------------------------------------------===//
// Crashes under compute()/computeChecked()
//===----------------------------------------------------------------------===//

/// How one charge ended: Resumed stays false while the thread is parked.
struct ChargeEnd {
  bool Resumed = false;
  bool Ok = false;
  SimTime At;
};

Task<void> charge(Node &N, SimTime Cpu, bool Checked, ChargeEnd &End) {
  if (Checked) {
    End.Ok = co_await N.computeChecked(Cpu);
  } else {
    co_await N.compute(Cpu);
    End.Ok = true;
  }
  End.Resumed = true;
  End.At = N.sim().now();
}

/// compute() parks for good on a crash; computeChecked() yields false at
/// the point the charge stopped (\p At).
void expectStopped(const ChargeEnd &End, bool Checked, SimTime At) {
  EXPECT_EQ(End.Resumed, Checked);
  if (Checked) {
    EXPECT_FALSE(End.Ok);
    EXPECT_EQ(End.At, At);
  }
}

/// After a crash has stopped every charge on \p N: restart it and check a
/// new thread gets a core at once.
void expectRestartFreesCore(Simulator &Sim, Node &N) {
  EXPECT_EQ(N.runnableThreads(), 0);
  N.restart();
  SimTime Start = Sim.now(), Done;
  SimTime BusyBefore = N.busyTime();
  Sim.spawn(burn(N, ms(3), Done));
  Sim.run();
  EXPECT_EQ(Done, Start + ms(3));
  EXPECT_EQ(N.busyTime(), BusyBefore + ms(3));
  EXPECT_EQ(N.runnableThreads(), 0);
}

TEST(NodeTest, CrashMidSliceStopsASingleSliceCharge) {
  for (bool Checked : {false, true}) {
    SCOPED_TRACE(Checked ? "computeChecked" : "compute");
    Simulator Sim;
    Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/1);
    ChargeEnd End;
    Sim.spawn(charge(N, ms(5), Checked, End)); // One slice: under a quantum.
    Sim.schedule(ms(2), [&N] { N.crash(); });
    Sim.run();
    expectStopped(End, Checked, ms(5));
    EXPECT_EQ(N.busyTime(), SimTime()) << "the lost slice was billed";
    expectRestartFreesCore(Sim, N);
  }
}

TEST(NodeTest, CrashStopsAMultiSliceChargeBetweenSlices) {
  for (bool Checked : {false, true}) {
    SCOPED_TRACE(Checked ? "computeChecked" : "compute");
    Simulator Sim;
    Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/1);
    ChargeEnd End;
    Sim.spawn(charge(N, ms(35), Checked, End)); // Slices end at 10/20/30/35.
    Sim.schedule(ms(15), [&N] { N.crash(); });
    Sim.run();
    expectStopped(End, Checked, ms(20));
    EXPECT_EQ(N.busyTime(), ms(10)) << "only the first slice completed";
    expectRestartFreesCore(Sim, N);
  }
}

TEST(NodeTest, CrashStopsAThreadQueuedForACore) {
  for (bool Checked : {false, true}) {
    SCOPED_TRACE(Checked ? "computeChecked" : "compute");
    Simulator Sim;
    Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/1);
    ChargeEnd Holder, Queued;
    Sim.spawn(charge(N, ms(5), Checked, Holder));
    Sim.spawn(charge(N, ms(5), Checked, Queued));
    int RunnableAtCrash = -1;
    Sim.schedule(ms(2), [&N, &RunnableAtCrash] {
      RunnableAtCrash = N.runnableThreads();
      N.crash();
    });
    Sim.run();
    EXPECT_EQ(RunnableAtCrash, 2);
    // The holder's slice ends at 5 ms and hands the core to the queued
    // thread, which finds the node down and gives it back unused.
    expectStopped(Holder, Checked, ms(5));
    expectStopped(Queued, Checked, ms(5));
    EXPECT_EQ(N.busyTime(), SimTime());
    expectRestartFreesCore(Sim, N);
  }
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsAllPostedWork) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::MonoVm117, 2);
  ThreadPool Pool(N, 4);
  int Ran = 0;
  for (int I = 0; I < 10; ++I)
    Pool.post([&N, &Ran]() -> Task<void> {
      struct Body {
        static Task<void> run(Node &N, int &Ran) {
          co_await N.compute(ms(1));
          ++Ran;
        }
      };
      return Body::run(N, Ran);
    });
  Sim.run();
  EXPECT_EQ(Ran, 10);
  EXPECT_EQ(Pool.posted(), 10u);
  EXPECT_EQ(Pool.queueDepth(), 0u);
}

TEST(ThreadPoolTest, CapLimitsConcurrency) {
  // With 2 workers, 4 long jobs finish in two waves even though the node
  // has 4 cores available.
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, 4);
  ThreadPool Pool(N, 2);
  std::vector<SimTime> Done;
  for (int I = 0; I < 4; ++I)
    Pool.post([&]() -> Task<void> {
      struct Body {
        static Task<void> run(Node &N, std::vector<SimTime> &Done) {
          co_await N.compute(ms(100));
          Done.push_back(N.sim().now());
        }
      };
      return Body::run(N, Done);
    });
  Sim.run();
  ASSERT_EQ(Done.size(), 4u);
  // First wave ~100ms, second wave ~200ms (plus small dispatch costs).
  EXPECT_LT(Done[1], ms(150));
  EXPECT_GT(Done[2], ms(150));
}

Task<void> awaitIdle(ThreadPool &Pool, Simulator &Sim, SimTime &IdleAt) {
  co_await Pool.waitIdle();
  IdleAt = Sim.now();
}

TEST(ThreadPoolTest, WaitIdleObservesCompletion) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, 1);
  ThreadPool Pool(N, 1);
  SimTime IdleAt;
  Pool.post([&N]() -> Task<void> {
    struct Body {
      static Task<void> run(Node &N) { co_await N.compute(ms(10)); }
    };
    return Body::run(N);
  });
  Sim.spawn(awaitIdle(Pool, Sim, IdleAt));
  Sim.run();
  EXPECT_GE(IdleAt, ms(10));
}

TEST(ThreadPoolTest, DefaultsToVmCap) {
  Simulator Sim;
  Node Mono(Sim, 0, VmKind::MonoVm117);
  ThreadPool Pool(Mono);
  EXPECT_EQ(Pool.workers(), calib::MonoThreadPoolMax);
}

//===----------------------------------------------------------------------===//
// Cluster
//===----------------------------------------------------------------------===//

TEST(ClusterTest, BuildsRequestedShape) {
  Cluster C(3, VmKind::MonoVm117);
  EXPECT_EQ(C.nodeCount(), 3);
  EXPECT_EQ(C.node(0).cores(), 2);
  EXPECT_EQ(C.node(2).id(), 2);
  EXPECT_EQ(C.node(1).vmKind(), VmKind::MonoVm117);
}

TEST(ClusterTest, CleanTeardownWithPendingWork) {
  Cluster C(2, VmKind::MonoVm117);
  SimTime Ignored;
  C.sim().spawn(burn(C.node(0), SimTime::seconds(100000), Ignored));
  for (int I = 0; I < 10; ++I) // Partially execute, then drop the cluster.
    C.sim().step();
  SUCCEED();
}

} // namespace
