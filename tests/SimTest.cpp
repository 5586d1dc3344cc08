//===- tests/SimTest.cpp - discrete-event kernel tests --------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "sim/Channel.h"
#include "sim/SimTime.h"
#include "sim/Simulator.h"
#include "sim/Sync.h"
#include "sim/Task.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace parcs;
using namespace parcs::sim;

namespace {

SimTime us(int64_t N) { return SimTime::microseconds(N); }

//===----------------------------------------------------------------------===//
// SimTime
//===----------------------------------------------------------------------===//

TEST(SimTimeTest, Arithmetic) {
  EXPECT_EQ(us(5) + us(7), us(12));
  EXPECT_EQ(SimTime::milliseconds(1) - us(1), us(999));
  EXPECT_EQ(us(5) * 3, us(15));
  EXPECT_LT(us(1), us(2));
  EXPECT_TRUE(SimTime().isZero());
}

TEST(SimTimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(SimTime::seconds(2).toSecondsF(), 2.0);
  EXPECT_DOUBLE_EQ(us(250).toMicrosF(), 250.0);
  EXPECT_EQ(SimTime::fromSecondsF(1e-6), us(1));
  EXPECT_EQ(SimTime::fromMicrosF(273.0), us(273));
}

TEST(SimTimeTest, Rendering) {
  EXPECT_EQ(SimTime::nanoseconds(12).str(), "12ns");
  EXPECT_EQ(us(273).str(), "273.0us");
  EXPECT_EQ(SimTime::milliseconds(12).str(), "12.000ms");
  EXPECT_EQ(SimTime::seconds(3).str(), "3.000s");
}

//===----------------------------------------------------------------------===//
// Simulator event scheduling
//===----------------------------------------------------------------------===//

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.schedule(us(30), [&] { Order.push_back(3); });
  Sim.schedule(us(10), [&] { Order.push_back(1); });
  Sim.schedule(us(20), [&] { Order.push_back(2); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Sim.now(), us(30));
}

TEST(SimulatorTest, EqualTimestampsRunInScheduleOrder) {
  Simulator Sim;
  std::vector<int> Order;
  for (int I = 0; I < 10; ++I)
    Sim.schedule(us(5), [&Order, I] { Order.push_back(I); });
  Sim.run();
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Order[static_cast<size_t>(I)], I);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator Sim;
  SimTime Inner;
  Sim.schedule(us(10), [&] {
    Sim.schedule(us(10), [&] { Inner = Sim.now(); });
  });
  Sim.run();
  EXPECT_EQ(Inner, us(20));
}

TEST(SimulatorTest, RunUntilAdvancesClock) {
  Simulator Sim;
  int Fired = 0;
  Sim.schedule(us(10), [&] { ++Fired; });
  Sim.schedule(us(50), [&] { ++Fired; });
  Sim.runUntil(us(30));
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(Sim.now(), us(30));
  Sim.run();
  EXPECT_EQ(Fired, 2);
}

TEST(SimulatorTest, RunHonoursMaxEvents) {
  Simulator Sim;
  int Fired = 0;
  for (int I = 0; I < 5; ++I)
    Sim.schedule(us(I), [&] { ++Fired; });
  EXPECT_EQ(Sim.run(3), 3u);
  EXPECT_EQ(Fired, 3);
  Sim.run();
  EXPECT_EQ(Fired, 5);
}

TEST(SimulatorTest, CountsEvents) {
  Simulator Sim;
  for (int I = 0; I < 4; ++I)
    Sim.schedule(us(I), [] {});
  Sim.run();
  EXPECT_EQ(Sim.eventsProcessed(), 4u);
}

//===----------------------------------------------------------------------===//
// Reserved sequence numbers
//===----------------------------------------------------------------------===//
//
// Each scenario runs twice: once scheduling event 0 when its number is
// claimed, once reserving the number then and scheduling the event later.
// The pop orders must be identical.

std::vector<int> reservedAmongLaterSameTimeEvents(bool Deferred) {
  Simulator Sim;
  std::vector<int> Order;
  uint64_t Seq = 0;
  auto Log = [&Order](int Id) { return [&Order, Id] { Order.push_back(Id); }; };
  Sim.schedule(us(10), Log(-1)); // Same time, claimed before the reservation.
  Sim.schedule(us(1), [&] {
    if (Deferred)
      Seq = Sim.reserveSeq();
    else
      Sim.schedule(us(9), Log(0));
    for (int I = 1; I <= 3; ++I)
      Sim.schedule(us(9), Log(I));
  });
  Sim.schedule(us(5), [&] {
    if (Deferred)
      Sim.scheduleAtReserved(us(10), Seq, Log(0));
    Sim.schedule(us(5), Log(4));
  });
  Sim.run();
  return Order;
}

TEST(ReservedSeqTest, PopsAmongEventsScheduledLaterAtTheSameTime) {
  EXPECT_EQ(reservedAmongLaterSameTimeEvents(true),
            reservedAmongLaterSameTimeEvents(false));
  EXPECT_EQ(reservedAmongLaterSameTimeEvents(true),
            (std::vector<int>{-1, 0, 1, 2, 3, 4}));
}

std::vector<int> reservedAtCurrentTime(bool Deferred) {
  Simulator Sim;
  std::vector<int> Order;
  uint64_t Seq = 0;
  auto Log = [&Order](int Id) { return [&Order, Id] { Order.push_back(Id); }; };
  Sim.schedule(us(1), [&] {
    if (Deferred)
      Seq = Sim.reserveSeq();
    else
      Sim.schedule(us(9), Log(0));
  });
  Sim.schedule(us(10), [&] {
    // Newer events at the current time sit in the immediate lane by the
    // time the reserved event is scheduled at that same time.
    Sim.schedule(SimTime(), Log(1));
    Sim.schedule(SimTime(), Log(2));
    if (Deferred)
      Sim.scheduleAtReserved(Sim.now(), Seq, Log(0));
    Sim.schedule(SimTime(), Log(3));
  });
  Sim.run();
  return Order;
}

TEST(ReservedSeqTest, PopsAheadOfNewerEventsAtTheCurrentTime) {
  EXPECT_EQ(reservedAtCurrentTime(true), reservedAtCurrentTime(false));
  EXPECT_EQ(reservedAtCurrentTime(true), (std::vector<int>{0, 1, 2, 3}));
}

std::vector<int> withUnusedReservation(bool Reserve) {
  Simulator Sim;
  std::vector<int> Order;
  auto Log = [&Order](int Id) { return [&Order, Id] { Order.push_back(Id); }; };
  for (int I = 0; I < 6; ++I) {
    if (Reserve && I == 3)
      (void)Sim.reserveSeq();
    Sim.schedule(us(I % 2), Log(I));
  }
  Sim.schedule(us(1), [&] {
    Sim.schedule(SimTime(), Log(6));
    if (Reserve)
      (void)Sim.reserveSeq();
    Sim.schedule(SimTime(), Log(7));
    Sim.schedule(us(1), Log(8));
  });
  Sim.run();
  EXPECT_EQ(Sim.pendingCount(), 0u);
  Order.push_back(static_cast<int>(Sim.eventsProcessed()));
  return Order;
}

TEST(ReservedSeqTest, UnusedReservationLeavesOrderUnchanged) {
  EXPECT_EQ(withUnusedReservation(true), withUnusedReservation(false));
  EXPECT_EQ(withUnusedReservation(true),
            (std::vector<int>{0, 2, 4, 1, 3, 5, 6, 7, 8, 10}));
}

//===----------------------------------------------------------------------===//
// Coroutine tasks
//===----------------------------------------------------------------------===//

Task<void> delayTwice(Simulator &Sim, SimTime D, std::vector<SimTime> &Log) {
  co_await Sim.delay(D);
  Log.push_back(Sim.now());
  co_await Sim.delay(D);
  Log.push_back(Sim.now());
}

TEST(TaskTest, DelaysAdvanceVirtualTime) {
  Simulator Sim;
  std::vector<SimTime> Log;
  Sim.spawn(delayTwice(Sim, us(100), Log));
  Sim.run();
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log[0], us(100));
  EXPECT_EQ(Log[1], us(200));
}

Task<int> plusOne(Simulator &Sim, int X) {
  co_await Sim.delay(us(1));
  co_return X + 1;
}

Task<void> chainValues(Simulator &Sim, int &Out) {
  int A = co_await plusOne(Sim, 1);
  int B = co_await plusOne(Sim, A);
  Out = B;
}

TEST(TaskTest, ValueReturningTasksChain) {
  Simulator Sim;
  int Out = 0;
  Sim.spawn(chainValues(Sim, Out));
  Sim.run();
  EXPECT_EQ(Out, 3);
  EXPECT_EQ(Sim.now(), us(2));
}

TEST(TaskTest, ManyConcurrentTasksInterleave) {
  Simulator Sim;
  std::vector<int> Finish;
  for (int I = 0; I < 8; ++I) {
    struct Proc {
      static Task<void> run(Simulator &Sim, int Id, std::vector<int> &Out) {
        co_await Sim.delay(us(10 * (8 - Id)));
        Out.push_back(Id);
      }
    };
    Sim.spawn(Proc::run(Sim, I, Finish));
  }
  Sim.run();
  ASSERT_EQ(Finish.size(), 8u);
  // Longest delay was task 0, so completion order is reversed.
  EXPECT_EQ(Finish.front(), 7);
  EXPECT_EQ(Finish.back(), 0);
}

TEST(TaskTest, UnfinishedSpawnedTasksAreReclaimed) {
  // A task suspended forever must be destroyed with the simulator (no leak
  // under ASan, no crash).
  auto Sim = std::make_unique<Simulator>();
  struct Proc {
    static Task<void> run(Simulator &Sim) {
      co_await Sim.delay(SimTime::seconds(1000000));
    }
  };
  Sim->spawn(Proc::run(*Sim));
  Sim->run(1); // Start the task; it parks on its delay.
  Sim.reset(); // Must reclaim the frame.
  SUCCEED();
}

TEST(TaskTest, UnstartedTaskIsReclaimedByDestructor) {
  Simulator Sim;
  {
    struct Proc {
      static Task<void> run(Simulator &Sim) { co_await Sim.delay(us(1)); }
    };
    Task<void> T = Proc::run(Sim);
    EXPECT_TRUE(T.valid());
    // Dropped without being awaited or spawned.
  }
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Future / Promise
//===----------------------------------------------------------------------===//

Task<void> waitFuture(Future<int> F, std::vector<int> &Out) {
  int V = co_await F;
  Out.push_back(V);
}

TEST(FutureTest, WakesAllWaiters) {
  Simulator Sim;
  Promise<int> P(Sim);
  std::vector<int> Out;
  Sim.spawn(waitFuture(P.future(), Out));
  Sim.spawn(waitFuture(P.future(), Out));
  Sim.schedule(us(50), [&] { P.set(99); });
  Sim.run();
  EXPECT_EQ(Out, (std::vector<int>{99, 99}));
}

TEST(FutureTest, AwaitAfterFulfilIsImmediate) {
  Simulator Sim;
  Promise<int> P(Sim);
  P.set(7);
  std::vector<int> Out;
  Sim.spawn(waitFuture(P.future(), Out));
  Sim.run();
  EXPECT_EQ(Out, (std::vector<int>{7}));
  EXPECT_TRUE(P.future().ready());
  EXPECT_EQ(P.future().get(), 7);
}


//===----------------------------------------------------------------------===//
// firstOf / afterDelay combinators
//===----------------------------------------------------------------------===//

TEST(CombinatorTest, FirstOfPicksTheEarlierFuture) {
  Simulator Sim;
  Promise<int> Slow(Sim), Fast(Sim);
  Sim.schedule(us(100), [&] { Slow.set(1); });
  Sim.schedule(us(10), [&] { Fast.set(2); });
  Future<int> Winner = firstOf(Sim, Slow.future(), Fast.future());
  int Got = 0;
  SimTime At;
  struct Proc {
    static Task<void> run(Simulator &Sim, Future<int> F, int &Got,
                          SimTime &At) {
      Got = co_await F;
      At = Sim.now();
    }
  };
  Sim.spawn(Proc::run(Sim, Winner, Got, At));
  Sim.run();
  EXPECT_EQ(Got, 2);
  EXPECT_EQ(At, us(10));
}

TEST(CombinatorTest, FirstOfTieResolvesDeterministically) {
  auto RunOnce = [] {
    Simulator Sim;
    Promise<int> A(Sim), B(Sim);
    Sim.schedule(us(5), [&] { A.set(1); });
    Sim.schedule(us(5), [&] { B.set(2); });
    Future<int> Winner = firstOf(Sim, A.future(), B.future());
    int Got = 0;
    struct Proc {
      static Task<void> run(Future<int> F, int &Got) { Got = co_await F; }
    };
    Sim.spawn(Proc::run(Winner, Got));
    Sim.run();
    return Got;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

TEST(CombinatorTest, AfterDelayBuildsTimeouts) {
  // The canonical timeout pattern: race the real work against a deadline.
  Simulator Sim;
  Promise<std::string> Work(Sim);
  Sim.schedule(SimTime::milliseconds(50), [&] { Work.set("done"); });
  Future<std::string> Result = firstOf(
      Sim, Work.future(),
      afterDelay(Sim, SimTime::milliseconds(10), std::string("timeout")));
  std::string Got;
  struct Proc {
    static Task<void> run(Future<std::string> F, std::string &Got) {
      Got = co_await F;
    }
  };
  Sim.spawn(Proc::run(Result, Got));
  Sim.run();
  EXPECT_EQ(Got, "timeout");
}

//===----------------------------------------------------------------------===//
// Semaphore / Mutex
//===----------------------------------------------------------------------===//

Task<void> holdSema(Simulator &Sim, Semaphore &Sema, SimTime Hold,
                    std::vector<SimTime> &Acquired) {
  co_await Sema.acquire();
  Acquired.push_back(Sim.now());
  co_await Sim.delay(Hold);
  Sema.release();
}

TEST(SemaphoreTest, SerialisesCriticalSections) {
  Simulator Sim;
  Semaphore Sema(Sim, 1);
  std::vector<SimTime> Acquired;
  for (int I = 0; I < 3; ++I)
    Sim.spawn(holdSema(Sim, Sema, us(10), Acquired));
  Sim.run();
  ASSERT_EQ(Acquired.size(), 3u);
  EXPECT_EQ(Acquired[0], us(0));
  EXPECT_EQ(Acquired[1], us(10));
  EXPECT_EQ(Acquired[2], us(20));
}

TEST(SemaphoreTest, CountTwoAllowsTwoConcurrent) {
  Simulator Sim;
  Semaphore Sema(Sim, 2);
  std::vector<SimTime> Acquired;
  for (int I = 0; I < 4; ++I)
    Sim.spawn(holdSema(Sim, Sema, us(10), Acquired));
  Sim.run();
  ASSERT_EQ(Acquired.size(), 4u);
  EXPECT_EQ(Acquired[0], us(0));
  EXPECT_EQ(Acquired[1], us(0));
  EXPECT_EQ(Acquired[2], us(10));
  EXPECT_EQ(Acquired[3], us(10));
}

TEST(SemaphoreTest, FifoWakeOrder) {
  Simulator Sim;
  Semaphore Sema(Sim, 0);
  std::vector<int> Woken;
  for (int I = 0; I < 3; ++I) {
    struct Proc {
      static Task<void> run(Semaphore &Sema, int Id, std::vector<int> &Out) {
        co_await Sema.acquire();
        Out.push_back(Id);
      }
    };
    Sim.spawn(Proc::run(Sema, I, Woken));
  }
  Sim.schedule(us(1), [&] { Sema.release(); });
  Sim.schedule(us(2), [&] { Sema.release(); });
  Sim.schedule(us(3), [&] { Sema.release(); });
  Sim.run();
  EXPECT_EQ(Woken, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Sema.available(), 0);
  EXPECT_EQ(Sema.waiting(), 0u);
}

//===----------------------------------------------------------------------===//
// WaitGroup
//===----------------------------------------------------------------------===//

TEST(WaitGroupTest, WaitsForAll) {
  Simulator Sim;
  WaitGroup Group(Sim);
  SimTime DoneAt;
  Group.add(3);
  for (int I = 1; I <= 3; ++I)
    Sim.schedule(us(10 * I), [&] { Group.done(); });
  struct Proc {
    static Task<void> run(Simulator &Sim, WaitGroup &Group, SimTime &DoneAt) {
      co_await Group.wait();
      DoneAt = Sim.now();
    }
  };
  Sim.spawn(Proc::run(Sim, Group, DoneAt));
  Sim.run();
  EXPECT_EQ(DoneAt, us(30));
}

TEST(WaitGroupTest, ZeroCountDoesNotBlock) {
  Simulator Sim;
  WaitGroup Group(Sim);
  bool Ran = false;
  struct Proc {
    static Task<void> run(WaitGroup &Group, bool &Ran) {
      co_await Group.wait();
      Ran = true;
    }
  };
  Sim.spawn(Proc::run(Group, Ran));
  Sim.run();
  EXPECT_TRUE(Ran);
}

//===----------------------------------------------------------------------===//
// Channel
//===----------------------------------------------------------------------===//

Task<void> produce(Simulator &Sim, Channel<int> &Chan, int Count,
                   SimTime Gap) {
  for (int I = 0; I < Count; ++I) {
    co_await Sim.delay(Gap);
    co_await Chan.send(I);
  }
}

Task<void> consume(Channel<int> &Chan, int Count, std::vector<int> &Out) {
  for (int I = 0; I < Count; ++I)
    Out.push_back(co_await Chan.recv());
}

TEST(ChannelTest, FifoDelivery) {
  Simulator Sim;
  Channel<int> Chan(Sim);
  std::vector<int> Out;
  Sim.spawn(consume(Chan, 5, Out));
  Sim.spawn(produce(Sim, Chan, 5, us(10)));
  Sim.run();
  EXPECT_EQ(Out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, ReceiverBeforeSender) {
  Simulator Sim;
  Channel<std::string> Chan(Sim);
  std::string Got;
  struct Proc {
    static Task<void> run(Channel<std::string> &Chan, std::string &Got) {
      Got = co_await Chan.recv();
    }
  };
  Sim.spawn(Proc::run(Chan, Got));
  Sim.schedule(us(100), [&] { Chan.trySend("hello"); });
  Sim.run();
  EXPECT_EQ(Got, "hello");
}

TEST(ChannelTest, BoundedChannelBlocksSender) {
  Simulator Sim;
  Channel<int> Chan(Sim, 2);
  std::vector<SimTime> SendTimes;
  struct Producer {
    static Task<void> run(Simulator &Sim, Channel<int> &Chan,
                          std::vector<SimTime> &Times) {
      for (int I = 0; I < 4; ++I) {
        co_await Chan.send(I);
        Times.push_back(Sim.now());
      }
    }
  };
  struct Consumer {
    static Task<void> run(Simulator &Sim, Channel<int> &Chan) {
      for (int I = 0; I < 4; ++I) {
        co_await Sim.delay(us(100));
        (void)co_await Chan.recv();
      }
    }
  };
  Sim.spawn(Producer::run(Sim, Chan, SendTimes));
  Sim.spawn(Consumer::run(Sim, Chan));
  Sim.run();
  ASSERT_EQ(SendTimes.size(), 4u);
  // First two fill the buffer immediately; the rest wait for receives.
  EXPECT_EQ(SendTimes[0], us(0));
  EXPECT_EQ(SendTimes[1], us(0));
  EXPECT_EQ(SendTimes[2], us(100));
  EXPECT_EQ(SendTimes[3], us(200));
}

TEST(ChannelTest, WokenReceiverIsNotStarvedByLateArrival) {
  // Receiver A waits on an empty channel.  An item arrives (A is woken),
  // and before A resumes another receiver B shows up.  The item must go to
  // A (FIFO), and B gets the second item.
  Simulator Sim;
  Channel<int> Chan(Sim);
  std::vector<std::pair<char, int>> Got;
  struct Recv {
    static Task<void> run(Channel<int> &Chan, char Tag,
                          std::vector<std::pair<char, int>> &Got) {
      int V = co_await Chan.recv();
      Got.push_back({Tag, V});
    }
  };
  Sim.spawn(Recv::run(Chan, 'A', Got));
  Sim.schedule(us(10), [&] {
    Chan.trySend(1); // Wakes A (scheduled).
    // B arrives in the same timestamp, before A's resume runs.
    Sim.spawn(Recv::run(Chan, 'B', Got));
    Chan.trySend(2);
  });
  Sim.run();
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0], std::make_pair('A', 1));
  EXPECT_EQ(Got[1], std::make_pair('B', 2));
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  auto RunOnce = [] {
    Simulator Sim;
    Channel<int> Chan(Sim);
    Semaphore Sema(Sim, 2);
    std::vector<int> Trace;
    for (int I = 0; I < 6; ++I) {
      struct Proc {
        static Task<void> run(Simulator &Sim, Channel<int> &Chan,
                              Semaphore &Sema, int Id,
                              std::vector<int> &Trace) {
          co_await Sema.acquire();
          co_await Sim.delay(SimTime::microseconds(7 * (Id % 3) + 1));
          co_await Chan.send(Id);
          Sema.release();
          Trace.push_back(Id);
        }
      };
      Sim.spawn(Proc::run(Sim, Chan, Sema, I, Trace));
    }
    struct Drain {
      static Task<void> run(Channel<int> &Chan, std::vector<int> &Trace) {
        for (int I = 0; I < 6; ++I)
          Trace.push_back(100 + co_await Chan.recv());
      }
    };
    Sim.spawn(Drain::run(Chan, Trace));
    Sim.run();
    return Trace;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

} // namespace
