//===- tests/SimStressTest.cpp - kernel property/stress tests -------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomised property tests of the simulation kernel: large seeded
/// workloads over channels, semaphores and wait groups, checking
/// conservation, mutual exclusion, FIFO per producer, and bit-for-bit
/// determinism across independent runs of the same seed.
///
//===----------------------------------------------------------------------===//

#include "sim/Channel.h"
#include "sim/Simulator.h"
#include "sim/Sync.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

using namespace parcs;
using namespace parcs::sim;

namespace {

SimTime us(int64_t N) { return SimTime::microseconds(N); }

//===----------------------------------------------------------------------===//
// Channel conservation + per-producer FIFO under random load
//===----------------------------------------------------------------------===//

struct ChannelStressResult {
  std::vector<std::pair<int, int>> Received; ///< (producer, seq).
  uint64_t FinalClockNs = 0;
};

ChannelStressResult runChannelStress(uint64_t Seed, int Producers,
                                     int ItemsPerProducer) {
  Simulator Sim;
  Channel<std::pair<int, int>> Chan(Sim);
  ChannelStressResult Result;
  Rng R(Seed);

  struct Producer {
    static Task<void> run(Simulator &Sim, Channel<std::pair<int, int>> &Chan,
                          int Id, int Items, uint64_t SubSeed) {
      Rng Mine(SubSeed);
      for (int Seq = 0; Seq < Items; ++Seq) {
        co_await Sim.delay(us(static_cast<int64_t>(Mine.nextBelow(50))));
        Chan.send({Id, Seq});
      }
    }
  };
  struct Consumer {
    static Task<void> run(Simulator &Sim, Channel<std::pair<int, int>> &Chan,
                          int Total, uint64_t SubSeed,
                          std::vector<std::pair<int, int>> &Out) {
      Rng Mine(SubSeed);
      for (int I = 0; I < Total; ++I) {
        if (Mine.nextBelow(3) == 0)
          co_await Sim.delay(us(static_cast<int64_t>(Mine.nextBelow(80))));
        Out.push_back(co_await Chan.recv());
      }
    }
  };

  for (int P = 0; P < Producers; ++P)
    Sim.spawn(Producer::run(Sim, Chan, P, ItemsPerProducer, R.next()));
  // Two competing consumers stress the reservation logic.
  int Total = Producers * ItemsPerProducer;
  int Half = Total / 2;
  Sim.spawn(Consumer::run(Sim, Chan, Half, R.next(), Result.Received));
  Sim.spawn(
      Consumer::run(Sim, Chan, Total - Half, R.next(), Result.Received));
  Sim.run();
  Result.FinalClockNs =
      static_cast<uint64_t>(Sim.now().nanosecondsCount());
  return Result;
}

class ChannelStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChannelStressTest, ConservesAndOrdersItems) {
  const int Producers = 7, Items = 40;
  ChannelStressResult Result = runChannelStress(GetParam(), Producers, Items);
  ASSERT_EQ(Result.Received.size(),
            static_cast<size_t>(Producers * Items));
  // Conservation: every (producer, seq) exactly once.
  std::map<int, std::vector<int>> PerProducer;
  for (auto [P, Seq] : Result.Received)
    PerProducer[P].push_back(Seq);
  ASSERT_EQ(PerProducer.size(), static_cast<size_t>(Producers));
  for (auto &[P, Seqs] : PerProducer) {
    ASSERT_EQ(Seqs.size(), static_cast<size_t>(Items)) << "producer " << P;
    // The two consumers interleave, but the union per producer must
    // contain every sequence number exactly once.
    std::vector<int> Sorted = Seqs;
    std::sort(Sorted.begin(), Sorted.end());
    for (int I = 0; I < Items; ++I)
      EXPECT_EQ(Sorted[static_cast<size_t>(I)], I);
  }
}

TEST_P(ChannelStressTest, DeterministicReplay) {
  ChannelStressResult A = runChannelStress(GetParam(), 5, 30);
  ChannelStressResult B = runChannelStress(GetParam(), 5, 30);
  EXPECT_EQ(A.Received, B.Received);
  EXPECT_EQ(A.FinalClockNs, B.FinalClockNs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelStressTest,
                         ::testing::Values(1u, 42u, 2026u, 777777u));

//===----------------------------------------------------------------------===//
// Semaphore mutual exclusion under random load
//===----------------------------------------------------------------------===//

class SemaphoreStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemaphoreStressTest, NeverOversubscribed) {
  Simulator Sim;
  const int Permits = 3, Tasks = 25;
  Semaphore Sema(Sim, Permits);
  int Inside = 0, MaxInside = 0, Completed = 0;
  Rng R(GetParam());

  struct Worker {
    static Task<void> run(Simulator &Sim, Semaphore &Sema, uint64_t SubSeed,
                          int &Inside, int &MaxInside, int &Completed) {
      Rng Mine(SubSeed);
      for (int Round = 0; Round < 5; ++Round) {
        co_await Sim.delay(us(static_cast<int64_t>(Mine.nextBelow(40))));
        co_await Sema.acquire();
        ++Inside;
        MaxInside = std::max(MaxInside, Inside);
        co_await Sim.delay(us(1 + static_cast<int64_t>(Mine.nextBelow(20))));
        --Inside;
        Sema.release();
      }
      ++Completed;
    }
  };
  for (int T = 0; T < Tasks; ++T)
    Sim.spawn(
        Worker::run(Sim, Sema, R.next(), Inside, MaxInside, Completed));
  Sim.run();
  EXPECT_EQ(Completed, Tasks);
  EXPECT_EQ(Inside, 0);
  EXPECT_LE(MaxInside, Permits);
  EXPECT_EQ(MaxInside, Permits) << "load should reach full concurrency";
  EXPECT_EQ(Sema.available(), Permits);
  EXPECT_EQ(Sema.waiting(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemaphoreStressTest,
                         ::testing::Values(3u, 99u, 123456u));

//===----------------------------------------------------------------------===//
// Pipelines of channels (data integrity through multiple hops)
//===----------------------------------------------------------------------===//

TEST(SimStressTest, MultiStageChannelPipelinePreservesStream) {
  Simulator Sim;
  const int Stages = 6, Items = 200;
  std::vector<std::unique_ptr<Channel<int>>> Links;
  for (int I = 0; I <= Stages; ++I)
    Links.push_back(std::make_unique<Channel<int>>(Sim));

  struct Stage {
    static Task<void> run(Simulator &Sim, Channel<int> &In, Channel<int> &Out,
                          int Items, int Increment) {
      for (int I = 0; I < Items; ++I) {
        int Value = co_await In.recv();
        co_await Sim.delay(us(1));
        Out.send(Value + Increment);
      }
    }
  };
  for (int S = 0; S < Stages; ++S)
    Sim.spawn(Stage::run(Sim, *Links[static_cast<size_t>(S)],
                         *Links[static_cast<size_t>(S + 1)], Items, 1));

  std::vector<int> Final;
  struct Drain {
    static Task<void> run(Channel<int> &In, int Items,
                          std::vector<int> &Out) {
      for (int I = 0; I < Items; ++I)
        Out.push_back(co_await In.recv());
    }
  };
  for (int I = 0; I < Items; ++I)
    Links[0]->send(I * 10);
  Sim.spawn(Drain::run(*Links[static_cast<size_t>(Stages)], Items, Final));
  Sim.run();

  ASSERT_EQ(Final.size(), static_cast<size_t>(Items));
  for (int I = 0; I < Items; ++I)
    EXPECT_EQ(Final[static_cast<size_t>(I)], I * 10 + Stages)
        << "stream order and increments must survive every hop";
}

//===----------------------------------------------------------------------===//
// WaitGroup fan-out/fan-in stress
//===----------------------------------------------------------------------===//

TEST(SimStressTest, NestedWaitGroupFanIn) {
  Simulator Sim;
  WaitGroup Outer(Sim);
  int Leaves = 0;
  struct Branch {
    static Task<void> run(Simulator &Sim, WaitGroup &Outer, int Depth,
                          int Fanout, int &Leaves) {
      if (Depth == 0) {
        co_await Sim.delay(us(3));
        ++Leaves;
        Outer.done();
        co_return;
      }
      for (int I = 0; I < Fanout; ++I) {
        Outer.add(1);
        Sim.spawn(Branch::run(Sim, Outer, Depth - 1, Fanout, Leaves));
      }
      Outer.done();
    }
  };
  Outer.add(1);
  Sim.spawn(Branch::run(Sim, Outer, /*Depth=*/4, /*Fanout=*/3, Leaves));
  bool Finished = false;
  struct Waiter {
    static Task<void> run(WaitGroup &Outer, bool &Finished) {
      co_await Outer.wait();
      Finished = true;
    }
  };
  Sim.spawn(Waiter::run(Outer, Finished));
  Sim.run();
  EXPECT_TRUE(Finished);
  EXPECT_EQ(Leaves, 3 * 3 * 3 * 3);
  EXPECT_EQ(Outer.count(), 0);
}

//===----------------------------------------------------------------------===//
// Event queue scale
//===----------------------------------------------------------------------===//

TEST(SimStressTest, HundredThousandEventsInOrder) {
  Simulator Sim;
  Rng R(11);
  int64_t LastSeen = -1;
  bool Monotonic = true;
  const int Events = 100000;
  for (int I = 0; I < Events; ++I) {
    int64_t At = static_cast<int64_t>(R.nextBelow(1000000));
    Sim.scheduleAt(us(At), [&, At] {
      if (At < LastSeen)
        Monotonic = false;
      LastSeen = std::max(LastSeen, At);
    });
  }
  Sim.run();
  EXPECT_TRUE(Monotonic);
  EXPECT_EQ(Sim.eventsProcessed(), static_cast<uint64_t>(Events));
}

//===----------------------------------------------------------------------===//
// Exact (time, seq) pop order across the kernel's lanes
//===----------------------------------------------------------------------===//

/// Drives a seeded random mix of schedules through one simulator and
/// records the (time, seq) key of every event it schedules.  The sequence
/// numbers mirror the kernel's: schedule, scheduleAt and reserveSeq each
/// claim the next one, and scheduleAtReserved claims none.
struct PopOrderModel {
  Simulator Sim;
  Rng R;
  uint64_t NextSeq = 0;
  /// (time, seq) of each scheduled event, indexed by its id.
  std::vector<std::pair<int64_t, uint64_t>> Keys;
  /// Event ids in the order they ran.
  std::vector<size_t> Ran;
  /// Events that ran with the clock off their own timestamp.
  int ClockMismatches = 0;
  /// Schedule operations that running events may still make.
  int Budget = 0;

  explicit PopOrderModel(uint64_t Seed) : R(Seed) {}

  struct Fire {
    PopOrderModel *Model;
    size_t Id;
    void operator()() const { Model->fire(Id); }
  };

  /// A delay in one of five classes: 0 (the same-time lane), under 512 ns,
  /// 512 ns to 2.1 ms, 2.1 ms to 10 s, and over 10 s.  Half the nonzero
  /// picks are one round value per class, so many events share a
  /// timestamp and only their sequence numbers order them.
  int64_t randomDelayNs() {
    bool Round = R.nextBelow(2) == 0;
    switch (R.nextBelow(5)) {
    case 0:
      return 0;
    case 1:
      return Round ? 256 : R.nextInRange(1, 511);
    case 2:
      return Round ? 1'000'000 : R.nextInRange(512, 2'100'000);
    case 3:
      return Round ? 50'000'000 : R.nextInRange(2'100'001, 10'000'000'000);
    default:
      return Round ? 20'000'000'000
                   : R.nextInRange(10'000'000'001, 100'000'000'000);
    }
  }

  /// Schedules one event \p DelayNs from now, through schedule or
  /// scheduleAt.
  void add(int64_t DelayNs) {
    size_t Id = Keys.size();
    int64_t AtNs = Sim.now().nanosecondsCount() + DelayNs;
    Keys.push_back({AtNs, NextSeq++});
    if (R.nextBelow(2) == 0)
      Sim.schedule(SimTime::nanoseconds(DelayNs), Fire{this, Id});
    else
      Sim.scheduleAt(SimTime::nanoseconds(AtNs), Fire{this, Id});
  }

  /// Reserves a sequence number, schedules one to three other events,
  /// then schedules an event under the reserved number, at the current
  /// time or later.  At the current time it must pop ahead of the
  /// same-time events scheduled in between.
  void addReserved() {
    uint64_t Seq = Sim.reserveSeq();
    ++NextSeq;
    for (uint64_t N = 1 + R.nextBelow(3); N > 0; --N)
      add(randomDelayNs());
    int64_t DelayNs = R.nextBelow(2) == 0 ? 0 : randomDelayNs();
    size_t Id = Keys.size();
    int64_t AtNs = Sim.now().nanosecondsCount() + DelayNs;
    Keys.push_back({AtNs, Seq});
    Sim.scheduleAtReserved(SimTime::nanoseconds(AtNs), Seq, Fire{this, Id});
  }

  void fire(size_t Id) {
    Ran.push_back(Id);
    if (Sim.now().nanosecondsCount() != Keys[Id].first)
      ++ClockMismatches;
    for (uint64_t N = R.nextBelow(3); N > 0 && Budget > 0; --N, --Budget) {
      if (R.nextBelow(8) == 0)
        addReserved();
      else
        add(randomDelayNs());
    }
  }
};

TEST(SimStressTest, EventsPopInExactTimeSeqOrder) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    SCOPED_TRACE(testing::Message() << "seed " << Seed);
    PopOrderModel Model(Seed);
    for (int Phase = 0; Phase < 4; ++Phase) {
      // A burst from outside the event loop, then a fast-forward: runUntil
      // runs every event up to a horizon and moves the clock to it, so the
      // next burst is scheduled from a time no event ran at.
      for (int I = 0; I < 1200; ++I)
        Model.add(Model.randomDelayNs());
      Model.Budget += 3000;
      Model.Sim.runUntil(Model.Sim.now() +
                         SimTime::nanoseconds(Model.randomDelayNs()));
    }
    Model.Sim.run();

    ASSERT_EQ(Model.Ran.size(), Model.Keys.size())
        << "an event was lost or ran twice";
    std::vector<size_t> Expected(Model.Keys.size());
    for (size_t Id = 0; Id < Expected.size(); ++Id)
      Expected[Id] = Id;
    std::sort(Expected.begin(), Expected.end(), [&](size_t A, size_t B) {
      return Model.Keys[A] < Model.Keys[B];
    });
    auto [RanAt, ExpectedAt] =
        std::mismatch(Model.Ran.begin(), Model.Ran.end(), Expected.begin());
    if (RanAt != Model.Ran.end()) {
      const auto &Got = Model.Keys[*RanAt];
      const auto &Want = Model.Keys[*ExpectedAt];
      ADD_FAILURE() << "position " << (RanAt - Model.Ran.begin())
                    << " ran (" << Got.first << " ns, seq " << Got.second
                    << "), expected (" << Want.first << " ns, seq "
                    << Want.second << ")";
    }
    EXPECT_EQ(Model.ClockMismatches, 0);
    EXPECT_GE(Model.Sim.counters().PeakQueueDepth, 1000u);
    EXPECT_EQ(Model.Sim.reserveSeq(), Model.NextSeq)
        << "the model's sequence numbers drifted from the kernel's";
  }
}

} // namespace
