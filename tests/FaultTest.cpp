//===- tests/FaultTest.cpp - fault injection + timeout tests --------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Failure-path behaviour: deterministic packet loss (the injector's
/// dropnth clause), call deadlines in the RPC engine, connection-setup
/// costs, and retry logic built from the two.
///
//===----------------------------------------------------------------------===//

#include "fault/Injector.h"
#include "remoting/Remoting.h"
#include "serial/Crc32.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

using namespace parcs;
using namespace parcs::remoting;
using namespace parcs::sim;

namespace {

SimTime ms(int64_t N) { return SimTime::milliseconds(N); }

class EchoHandler : public CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method != "echo")
      co_return Error(ErrorCode::UnknownMethod, std::string(Method));
    ++Calls;
    co_return Bytes(Args);
  }
  int Calls = 0;
};

/// Echo that occupies its node's CPU for a fixed time first.
class SlowEchoHandler : public CallHandler {
public:
  SlowEchoHandler(vm::Node &Host, SimTime Cost) : Host(Host), Cost(Cost) {}
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    co_await Host.compute(Cost);
    ++Calls;
    co_return Bytes(Args);
  }
  vm::Node &Host;
  SimTime Cost;
  int Calls = 0;
};

/// Echo that answers at the virtual time its int64 argument names, in
/// microseconds (at once when that is past), without holding a core.
class UntilEchoHandler : public CallHandler {
public:
  explicit UntilEchoHandler(Simulator &Sim) : Sim(Sim) {}
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    int64_t AtUs = 0;
    if (!serial::decodeValues(Args, AtUs))
      co_return Error(ErrorCode::InvalidArgument, "want an int64 time");
    SimTime At = SimTime::microseconds(AtUs);
    if (At > Sim.now())
      co_await Sim.delay(At - Sim.now());
    co_return Bytes(Args);
  }
  Simulator &Sim;
};

/// Two nodes with an echo server on node 1.  A positive \p DropEveryNth
/// attaches an injector whose plan is dropnth(DropEveryNth); \p Hooked
/// attaches one that drops nothing.  Any attached hook makes every frame
/// carry the CRC trailer.
struct FaultWorld {
  explicit FaultWorld(int DropEveryNth = 0, bool Hooked = false)
      : Machines(2, vm::VmKind::MonoVm117), Net(Machines.sim(), 2),
        Client(Machines.node(0), Net,
               stackProfile(StackKind::MonoRemotingTcp117), 1050),
        Server(Machines.node(1), Net,
               stackProfile(StackKind::MonoRemotingTcp117), 1050),
        Echo(std::make_shared<EchoHandler>()) {
    if (DropEveryNth > 0 || Hooked) {
      fault::FaultPlan Plan;
      Plan.DropEveryNth = DropEveryNth;
      Chaos = std::make_unique<fault::Injector>(Machines.sim(), Plan);
      Chaos->attach(Machines, Net);
    }
    Server.publish("echo", Echo);
  }

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  std::unique_ptr<fault::Injector> Chaos;
  RpcEndpoint Client;
  RpcEndpoint Server;
  std::shared_ptr<EchoHandler> Echo;
};

//===----------------------------------------------------------------------===//
// Packet loss
//===----------------------------------------------------------------------===//

TEST(FaultTest, DropPatternIsDeterministic) {
  FaultWorld W(/*DropEveryNth=*/3);
  int Ok = 0, TimedOut = 0;
  struct Proc {
    static Task<void> run(FaultWorld &W, int &Ok, int &TimedOut) {
      for (int I = 0; I < 9; ++I) {
        Bytes Payload = serial::encodeValues(static_cast<int32_t>(I));
        ErrorOr<Bytes> Out = co_await W.Client.call(
            1, 1050, "echo", "echo", Payload, /*Timeout=*/ms(50));
        if (Out)
          ++Ok;
        else if (Out.error().code() == ErrorCode::TimedOut)
          ++TimedOut;
      }
    }
  };
  W.sim().spawn(Proc::run(W, Ok, TimedOut));
  W.sim().run();
  // Transfers interleave request/reply, but a dropped request produces no
  // reply, which shifts the pattern: transfer 3 (request 2), 6 (request
  // 4), 9 (request 6), 12 (request 8) are lost -- 4 drops, so calls
  // 2/4/6/8 time out and the odd calls succeed.
  EXPECT_EQ(W.Net.messagesDropped(), 4u);
  EXPECT_EQ(Ok + TimedOut, 9);
  EXPECT_EQ(TimedOut, 4);
  EXPECT_EQ(Ok, 5);
}

TEST(FaultTest, LossyNetworkWithoutTimeoutJustStalls) {
  // A dropped call without a deadline leaves the pending entry parked;
  // the simulation drains and the caller never resumes -- exactly why
  // the timeout API exists.  The frame must still be reclaimed safely.
  FaultWorld W(/*DropEveryNth=*/1); // Everything is lost.
  bool Resumed = false;
  struct Proc {
    static Task<void> run(FaultWorld &W, bool &Resumed) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      Resumed = true;
    }
  };
  W.sim().spawn(Proc::run(W, Resumed));
  W.sim().run();
  EXPECT_FALSE(Resumed);
  EXPECT_GE(W.Net.messagesDropped(), 1u);
}

TEST(FaultTest, RetryLoopSurvivesLoss) {
  // Standard client pattern: retry with a deadline until success.  A
  // leading one-way message shifts the drop phase so the first attempt
  // loses its reply and the retry goes through.
  FaultWorld W(/*DropEveryNth=*/3);
  int Attempts = 0;
  bool Succeeded = false;
  struct Proc {
    static Task<void> run(FaultWorld &W, int &Attempts, bool &Succeeded) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(42));
      co_await W.Client.callOneWay(1, 1050, "echo", "echo", Payload);
      for (int Try = 0; Try < 10 && !Succeeded; ++Try) {
        ++Attempts;
        ErrorOr<Bytes> Out = co_await W.Client.call(
            1, 1050, "echo", "echo", Payload, /*Timeout=*/ms(20));
        Succeeded = Out.hasValue();
      }
    }
  };
  W.sim().spawn(Proc::run(W, Attempts, Succeeded));
  W.sim().run();
  EXPECT_TRUE(Succeeded);
  EXPECT_EQ(Attempts, 2) << "first attempt's reply is transfer 3 (lost)";
}

TEST(FaultTest, TimeoutDoesNotFireOnFastReply) {
  FaultWorld W;
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(5));
      Out = co_await W.Client.call(1, 1050, "echo", "echo", Payload,
                                   /*Timeout=*/SimTime::seconds(10));
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  EXPECT_TRUE(Out.hasValue());
}

TEST(FaultTest, LateRepliesAfterTimeoutAreDropped) {
  // Timeout shorter than the round trip: the reply arrives after the
  // deadline and must be discarded without crashing or mis-matching.
  FaultWorld W;
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(5));
      Out = co_await W.Client.call(1, 1050, "echo", "echo", Payload,
                                   /*Timeout=*/SimTime::microseconds(100));
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.error().code(), ErrorCode::TimedOut);
  // The server still executed the call; its late reply was recognised as
  // a timed-out call's (not mis-counted as a malformed frame).
  EXPECT_EQ(W.Echo->Calls, 1);
  EXPECT_EQ(W.Client.stats().LateReplies, 1u);
  EXPECT_EQ(W.Client.stats().MalformedDropped, 0u);
}

TEST(FaultTest, LateRepliesPastAnyRecentWindowAreNotMalformed) {
  // Far more calls time out than any bounded history of timed-out ids
  // would hold; every one of their replies must still count as late.
  FaultWorld W;
  auto Slow = std::make_shared<SlowEchoHandler>(W.Machines.node(1),
                                                SimTime::microseconds(2500));
  W.Server.publish("slow", Slow);
  constexpr int Calls = 200;
  int TimedOut = 0;
  struct Proc {
    static Task<void> run(FaultWorld &W, int &TimedOut) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(3));
      ErrorOr<Bytes> Out = co_await W.Client.call(1, 1050, "slow", "echo",
                                                  Payload, /*Timeout=*/ms(1));
      if (!Out && Out.error().code() == ErrorCode::TimedOut)
        ++TimedOut;
    }
  };
  for (int I = 0; I < Calls; ++I)
    W.sim().spawn(Proc::run(W, TimedOut));
  W.sim().run();
  EXPECT_EQ(TimedOut, Calls);
  EXPECT_EQ(Slow->Calls, Calls);
  EXPECT_EQ(W.Client.stats().LateReplies, static_cast<uint64_t>(Calls));
  EXPECT_EQ(W.Client.stats().MalformedDropped, 0u);
}

TEST(FaultTest, InFlightCountOutlivesUnpublish) {
  // Unpublishing a name mid-call must not drop its in-flight count (a
  // migration drain reads it); the count ends when the call does.
  FaultWorld W;
  auto Slow = std::make_shared<SlowEchoHandler>(W.Machines.node(1), ms(2));
  W.Server.publish("slow", Slow);
  ErrorOr<Bytes> Out(Bytes{});
  size_t AfterUnpublish = 0;
  struct Proc {
    static Task<void> call(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(4));
      Out = co_await W.Client.call(1, 1050, "slow", "echo", Payload);
    }
    static Task<void> unpublishMidCall(FaultWorld &W, size_t &Count) {
      for (int I = 0; I < 1000 && W.Server.inFlight("slow") == 0; ++I)
        co_await W.sim().delay(SimTime::microseconds(100));
      EXPECT_TRUE(W.Server.unpublish("slow"));
      Count = W.Server.inFlight("slow");
    }
  };
  W.sim().spawn(Proc::call(W, Out));
  W.sim().spawn(Proc::unpublishMidCall(W, AfterUnpublish));
  W.sim().run();
  EXPECT_EQ(AfterUnpublish, 1u);
  EXPECT_TRUE(Out.hasValue());
  EXPECT_EQ(Slow->Calls, 1);
  EXPECT_EQ(W.Server.inFlight("slow"), 0u);
}

//===----------------------------------------------------------------------===//
// Pending-call table
//===----------------------------------------------------------------------===//

TEST(FaultTest, ThousandCallsAnsweredInReverseEachGetTheirOwnReply) {
  // 1,000 calls from one endpoint are pending at once -- the pending table
  // grows well past its first size, and call ids wrap around its slots --
  // and the server answers them in reverse issue order.
  constexpr int Calls = 1000;
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  const StackProfile &Stack = stackProfile(StackKind::MonoRemotingTcp117);
  RpcEndpoint Client(Machines.node(0), Net, Stack, 1050);
  RpcEndpoint Server(Machines.node(1), Net, Stack, 1050,
                     /*DispatchWorkers=*/Calls);
  Server.publish("until", std::make_shared<UntilEchoHandler>(Machines.sim()));
  // Call I is answered at 1 s + (Calls - I) ms: long after every call has
  // arrived, last issued first.
  auto AnswerAtUs = [](int I) { return 1'000'000 + int64_t(Calls - I) * 1000; };
  std::vector<int64_t> Replies(Calls, -1);
  std::vector<int> Order;
  struct Proc {
    static Task<void> run(RpcEndpoint &Client, int I, int64_t AtUs,
                          std::vector<int64_t> &Replies,
                          std::vector<int> &Order) {
      ErrorOr<Bytes> Out = co_await Client.call(1, 1050, "until", "echo",
                                                serial::encodeValues(AtUs));
      int64_t Back = -1;
      if (Out && serial::decodeValues(*Out, Back))
        Replies[I] = Back;
      Order.push_back(I);
    }
  };
  for (int I = 0; I < Calls; ++I)
    Machines.sim().spawn(Proc::run(Client, I, AnswerAtUs(I), Replies, Order));
  Machines.sim().run();
  for (int I = 0; I < Calls; ++I)
    ASSERT_EQ(Replies[I], AnswerAtUs(I)) << "call " << I;
  std::vector<int> Reversed;
  for (int I = Calls - 1; I >= 0; --I)
    Reversed.push_back(I);
  EXPECT_EQ(Order, Reversed);
  EXPECT_EQ(Client.stats().RepliesReceived, uint64_t(Calls));
  EXPECT_EQ(Client.stats().LateReplies, 0u);
  EXPECT_EQ(Client.stats().MalformedDropped, 0u);
}

TEST(FaultTest, LateReplyNeverReachesItsSlotsNewerCall) {
  // Call 1 times out.  Call 4097 shares its home slot in any pending table
  // of up to 4,096 slots, and is pending when call 1's reply finally
  // arrives: that reply counts as late, and call 4097 stays pending until
  // its own reply.
  FaultWorld W;
  W.Server.publish("until", std::make_shared<UntilEchoHandler>(W.sim()));
  ErrorOr<Bytes> First(Bytes{}), Newer(Bytes{});
  uint64_t LateBeforeNewer = 0;
  SimTime NewerDoneAt;
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &First,
                          ErrorOr<Bytes> &Newer, uint64_t &LateBeforeNewer,
                          SimTime &NewerDoneAt) {
      // Answered at 5 s, long after its 10 ms deadline.
      First = co_await W.Client.call(1, 1050, "until", "echo",
                                     serial::encodeValues(int64_t(5'000'000)),
                                     ms(10));
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(7));
      for (int I = 2; I <= 4096; ++I)
        (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      LateBeforeNewer = W.Client.stats().LateReplies;
      // Answered at 10 s.
      Newer = co_await W.Client.call(1, 1050, "until", "echo",
                                     serial::encodeValues(int64_t(10'000'000)));
      NewerDoneAt = W.sim().now();
    }
  };
  W.sim().spawn(Proc::run(W, First, Newer, LateBeforeNewer, NewerDoneAt));
  W.sim().run();
  ASSERT_FALSE(First.hasValue());
  EXPECT_EQ(First.error().code(), ErrorCode::TimedOut);
  EXPECT_EQ(LateBeforeNewer, 0u) << "call 1's reply came before call 4097";
  ASSERT_TRUE(Newer.hasValue());
  int64_t Back = 0;
  ASSERT_TRUE(serial::decodeValues(*Newer, Back));
  EXPECT_EQ(Back, 10'000'000);
  EXPECT_GE(NewerDoneAt, SimTime::seconds(10));
  EXPECT_EQ(W.Client.stats().LateReplies, 1u);
  EXPECT_EQ(W.Client.stats().MalformedDropped, 0u);
  EXPECT_EQ(W.Client.stats().RepliesReceived, 4096u);
}

TEST(FaultTest, ReapedCallFrameLeavesNoPendingRecord) {
  // A call frame destroyed while its reply is outstanding takes its record
  // out of the pending table, so the call's deadline later fires into an
  // empty slot.  (A record left behind would be written to and resumed
  // after its frame is gone -- a use-after-free under the asan-ubsan
  // preset.)  Nothing reads port 1060, so no reply ever comes and the
  // deadline timer is the only event left after the reap.
  FaultWorld W;
  W.Net.bind(1, 1060);
  bool Returned = false;
  struct Proc {
    static Task<void> run(FaultWorld &W, bool &Returned) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      (void)co_await W.Client.call(1, 1060, "echo", "echo", Payload, ms(20));
      Returned = true;
    }
  };
  W.sim().spawn(Proc::run(W, Returned));
  W.sim().runUntil(ms(10));
  EXPECT_EQ(W.Client.deadlineTimers(), 1u);
  W.sim().reapDetached();
  W.sim().run();
  EXPECT_FALSE(Returned);
  EXPECT_EQ(W.Client.deadlineTimersFired(), 1u);
  EXPECT_EQ(W.Client.stats().RepliesReceived, 0u);
}

TEST(FaultTest, CallFrameReapedAfterItsEndpointTouchesNothing) {
  // runLoadGen's teardown order: the endpoints are destroyed first, then
  // the simulator reaps the frames still waiting on their replies.  The
  // reaped call must not reach back into its destroyed endpoint.
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  auto Client = std::make_unique<RpcEndpoint>(
      Machines.node(0), Net, stackProfile(StackKind::MonoRemotingTcp117),
      1050);
  Net.bind(1, 1060);
  bool Returned = false;
  struct Proc {
    static Task<void> run(RpcEndpoint &Client, bool &Returned) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      // Nothing reads port 1060: the call waits forever.
      (void)co_await Client.call(1, 1060, "echo", "echo", Payload);
      Returned = true;
    }
  };
  Machines.sim().spawn(Proc::run(*Client, Returned));
  Machines.sim().run();
  EXPECT_EQ(Client->stats().CallsIssued, 1u);
  Client.reset();
  Machines.sim().reapDetached();
  EXPECT_FALSE(Returned);
}

//===----------------------------------------------------------------------===//
// Deadline timers
//===----------------------------------------------------------------------===//

TEST(FaultTest, FastCallsShareOneDeadlineTimer) {
  // Calls answered long before their deadline leave no timer per call
  // behind: one timer is pending at a time, and it fires once.
  FaultWorld W;
  constexpr int Calls = 1000;
  int Ok = 0;
  size_t MostTimers = 0;
  struct Proc {
    static Task<void> run(FaultWorld &W, int &Ok, size_t &MostTimers) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(5));
      for (int I = 0; I < Calls; ++I) {
        ErrorOr<Bytes> Out = co_await W.Client.call(
            1, 1050, "echo", "echo", Payload, SimTime::seconds(10));
        Ok += Out.hasValue();
        MostTimers = std::max(MostTimers, W.Client.deadlineTimers());
      }
    }
  };
  W.sim().spawn(Proc::run(W, Ok, MostTimers));
  W.sim().run();
  EXPECT_EQ(Ok, Calls);
  EXPECT_EQ(MostTimers, 1u);
  EXPECT_LE(W.Client.deadlineTimersFired(), 1u);
  EXPECT_EQ(W.Client.deadlineTimers(), 0u);
}

TEST(FaultTest, EqualDeadlinesFireInIssueOrder) {
  // Every message is lost, so each call ends at its deadline.  Issue
  // times are staggered and timeouts shortened to match, so all deadlines
  // land on one instant.
  FaultWorld W(/*DropEveryNth=*/1);
  constexpr int Calls = 6;
  std::vector<int> Order;
  std::vector<SimTime> When;
  struct Proc {
    static Task<void> one(FaultWorld &W, int I, std::vector<int> &Order,
                          std::vector<SimTime> &When) {
      co_await W.sim().delay(ms(I));
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(I));
      ErrorOr<Bytes> Out = co_await W.Client.call(1, 1050, "echo", "echo",
                                                  Payload, ms(20 - I));
      if (!Out && Out.error().code() == ErrorCode::TimedOut) {
        Order.push_back(I);
        When.push_back(W.sim().now());
      }
    }
    static Task<void> run(FaultWorld &W, std::vector<int> &Order,
                          std::vector<SimTime> &When) {
      // Connect first, so no call pays the setup inside its window.
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(-1));
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload, ms(1));
      for (int I = 0; I < Calls; ++I)
        W.sim().spawn(one(W, I, Order, When));
    }
  };
  W.sim().spawn(Proc::run(W, Order, When));
  W.sim().run();
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(When.size(), static_cast<size_t>(Calls));
  for (SimTime T : When)
    EXPECT_EQ(T, When.front());
}

TEST(FaultTest, LaterCallWithShorterTimeoutTimesOutFirst) {
  FaultWorld W(/*DropEveryNth=*/1);
  std::vector<int> Order;
  size_t TimersWhileBothPending = 0;
  struct Proc {
    static Task<void> one(FaultWorld &W, int I, SimTime Start,
                          SimTime Timeout, std::vector<int> &Order) {
      co_await W.sim().delay(Start);
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(I));
      ErrorOr<Bytes> Out = co_await W.Client.call(1, 1050, "echo", "echo",
                                                  Payload, Timeout);
      if (!Out && Out.error().code() == ErrorCode::TimedOut)
        Order.push_back(I);
    }
    static Task<void> probe(FaultWorld &W, size_t &Timers) {
      co_await W.sim().delay(ms(5));
      Timers = W.Client.deadlineTimers();
    }
  };
  W.sim().spawn(Proc::one(W, 0, SimTime(), ms(50), Order));
  W.sim().spawn(Proc::one(W, 1, ms(1), ms(10), Order));
  W.sim().spawn(Proc::probe(W, TimersWhileBothPending));
  W.sim().run();
  EXPECT_EQ(Order, (std::vector<int>{1, 0}));
  EXPECT_EQ(TimersWhileBothPending, 2u)
      << "the shorter deadline needs a timer ahead of the pending one";
}

/// One call's virtual duration after a warm-up call has connected.  With
/// every message lost, a call lasts exactly its send cost plus timeout.
/// The world is hooked even without drops, so lossy and clean runs frame
/// alike (CRC trailer included).
SimTime warmCallTime(int DropEveryNth, SimTime Timeout) {
  FaultWorld W(DropEveryNth, /*Hooked=*/true);
  SimTime Took;
  struct Proc {
    static Task<void> run(FaultWorld &W, SimTime Timeout, SimTime &Took) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload, Timeout);
      SimTime Start = W.sim().now();
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload, Timeout);
      Took = W.sim().now() - Start;
    }
  };
  W.sim().spawn(Proc::run(W, Timeout, Took));
  W.sim().run();
  return Took;
}

struct TieRun {
  bool AOk = false;
  ErrorOr<Bytes> B{Bytes{}};
  SimTime BIssued, BEnded;
  size_t TimersWhileBPending = 0;
  EndpointStats Stats;
};

/// Call A, then, once A is answered, call B with a deadline \p Slack after
/// the instant B's reply is handled.  A's deadline is 1 ns before B's, so
/// the timer armed for A (stale by then) fires first and arms B's deadline
/// after B's reply is already queued at that instant.
TieRun runDeadlineTie(SimTime SendCost, SimTime RoundTrip, SimTime Slack) {
  // Hooked like warmCallTime's worlds, whose costs it replays.
  FaultWorld W(/*DropEveryNth=*/0, /*Hooked=*/true);
  TieRun R;
  struct Proc {
    static Task<void> run(FaultWorld &W, SimTime SendCost, SimTime RoundTrip,
                          SimTime Slack, TieRun &R) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      SimTime AIssued = W.sim().now();
      SimTime BIssued = AIssued + RoundTrip + ms(1);
      SimTime BReplied = BIssued + RoundTrip;
      SimTime ATimeout =
          BReplied - SimTime::nanoseconds(1) - (AIssued + SendCost);
      R.AOk = (co_await W.Client.call(1, 1050, "echo", "echo", Payload,
                                      ATimeout))
                  .hasValue();
      co_await W.sim().delay(BIssued - W.sim().now());
      SimTime HalfTrip =
          SimTime::nanoseconds(RoundTrip.nanosecondsCount() / 2);
      W.sim().spawn(probe(W, HalfTrip, R));
      R.BIssued = W.sim().now();
      R.B = co_await W.Client.call(1, 1050, "echo", "echo", Payload,
                                   RoundTrip - SendCost + Slack);
      R.BEnded = W.sim().now();
    }
    static Task<void> probe(FaultWorld &W, SimTime After, TieRun &R) {
      co_await W.sim().delay(After);
      R.TimersWhileBPending = W.Client.deadlineTimers();
    }
  };
  W.sim().spawn(Proc::run(W, SendCost, RoundTrip, Slack, R));
  W.sim().run();
  R.Stats = W.Client.stats();
  return R;
}

TEST(FaultTest, ReplyOnTheDeadlineNanosecondTimesOut) {
  SimTime SendCost = warmCallTime(/*DropEveryNth=*/1, ms(1)) - ms(1);
  SimTime RoundTrip = warmCallTime(/*DropEveryNth=*/0, SimTime());
  ASSERT_GT(SendCost, SimTime());
  ASSERT_GT(RoundTrip, SendCost);

  // Deadline and reply share one nanosecond: the deadline was claimed
  // when B was sent, before its reply existed, so it wins the tie even
  // though its timer was armed only after the reply was queued.
  TieRun Tie = runDeadlineTie(SendCost, RoundTrip, SimTime());
  EXPECT_TRUE(Tie.AOk);
  EXPECT_EQ(Tie.TimersWhileBPending, 1u)
      << "B's deadline was armed when it was sent";
  ASSERT_FALSE(Tie.B.hasValue());
  EXPECT_EQ(Tie.B.error().code(), ErrorCode::TimedOut);
  EXPECT_EQ(Tie.BEnded - Tie.BIssued, RoundTrip);
  EXPECT_EQ(Tie.Stats.LateReplies, 1u);
  EXPECT_EQ(Tie.Stats.MalformedDropped, 0u);

  // One nanosecond more and the reply wins at the same instant: the tie
  // above was exact.
  TieRun After = runDeadlineTie(SendCost, RoundTrip, SimTime::nanoseconds(1));
  EXPECT_TRUE(After.B.hasValue());
  EXPECT_EQ(After.BEnded - After.BIssued, RoundTrip);
  EXPECT_EQ(After.Stats.LateReplies, 0u);
}

//===----------------------------------------------------------------------===//
// Connection establishment
//===----------------------------------------------------------------------===//

TEST(FaultTest, FirstCallPaysConnectionSetup) {
  FaultWorld W;
  SimTime First, Second;
  struct Proc {
    static Task<void> run(FaultWorld &W, SimTime &First, SimTime &Second) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      SimTime T0 = W.sim().now();
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      First = W.sim().now() - T0;
      SimTime T1 = W.sim().now();
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      Second = W.sim().now() - T1;
    }
  };
  W.sim().spawn(Proc::run(W, First, Second));
  W.sim().run();
  SimTime Setup = stackProfile(StackKind::MonoRemotingTcp117).ConnectSetup;
  EXPECT_GT(First, Second + Setup - SimTime::microseconds(1));
  EXPECT_LT(First - Second, Setup + SimTime::microseconds(50));
}

TEST(FaultTest, LoopbackSkipsConnectionSetup) {
  FaultWorld W;
  W.Client.publish("local-echo", std::make_shared<EchoHandler>());
  SimTime First;
  struct Proc {
    static Task<void> run(FaultWorld &W, SimTime &First) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      SimTime T0 = W.sim().now();
      (void)co_await W.Client.call(0, 1050, "local-echo", "echo", Payload);
      First = W.sim().now() - T0;
    }
  };
  W.sim().spawn(Proc::run(W, First));
  W.sim().run();
  EXPECT_LT(First,
            stackProfile(StackKind::MonoRemotingTcp117).ConnectSetup);
}

TEST(FaultTest, ConcurrentFirstCallsConnectOnce) {
  FaultWorld W;
  SimTime Done;
  struct Proc {
    static Task<void> run(FaultWorld &W, sim::WaitGroup &Group) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      Group.done();
    }
  };
  sim::WaitGroup Group(W.sim());
  Group.add(3);
  for (int I = 0; I < 3; ++I)
    W.sim().spawn(Proc::run(W, Group));
  W.sim().run();
  EXPECT_EQ(W.Echo->Calls, 3);
  // All three completed within roughly one connect + one round trip --
  // not three connects back to back.
  EXPECT_LT(W.sim().now(), ms(3));
}

//===----------------------------------------------------------------------===//
// Frame checksums
//===----------------------------------------------------------------------===//

TEST(FaultTest, Crc32MatchesKnownVector) {
  // The CRC-32 (IEEE 802.3) check value for "123456789".
  const char *Digits = "123456789";
  EXPECT_EQ(serial::crc32(reinterpret_cast<const uint8_t *>(Digits), 9),
            0xCBF43926u);
  EXPECT_EQ(serial::crc32(nullptr, 0), 0u);
}

TEST(FaultTest, CorruptedFramesAreCountedAndDropped) {
  // With the injector flipping one bit in every payload, the server must
  // classify the frames as corrupted (CRC mismatch), not as malformed
  // protocol, and the caller times out cleanly.
  FaultWorld W;
  ErrorOr<fault::FaultPlan> Plan = fault::FaultPlan::parse("corrupt(1.0)");
  ASSERT_TRUE(Plan.hasValue()) << Plan.error().str();
  fault::Injector Chaos(W.sim(), *Plan);
  Chaos.attach(W.Machines, W.Net);
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(7));
      Out = co_await W.Client.call(1, 1050, "echo", "echo", Payload,
                                   /*Timeout=*/ms(20));
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.error().code(), ErrorCode::TimedOut);
  EXPECT_EQ(W.Echo->Calls, 0);
  EXPECT_EQ(Chaos.counters().Corrupted, 1u);
  EXPECT_EQ(W.Server.stats().CorruptedDropped, 1u);
  EXPECT_EQ(W.Server.stats().MalformedDropped, 0u);
}

TEST(FaultTest, RetryOutlivesCorruptionWindow) {
  // Corruption active only for the first 5 ms: the first attempt's frame
  // dies on the CRC check, the retry (after the attempt timeout) lands in
  // the clean window and succeeds end to end.
  FaultWorld W;
  ErrorOr<fault::FaultPlan> Plan =
      fault::FaultPlan::parse("corrupt(1.0,0,5ms)");
  ASSERT_TRUE(Plan.hasValue()) << Plan.error().str();
  fault::Injector Chaos(W.sim(), *Plan);
  Chaos.attach(W.Machines, W.Net);
  RetryPolicy Retry;
  Retry.MaxAttempts = 4;
  Retry.AttemptTimeout = ms(10);
  W.Client.setRetryPolicy(Retry);
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(9));
      Out = co_await W.Client.callReliable(1, 1050, "echo", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_TRUE(Out.hasValue()) << Out.error().str();
  EXPECT_EQ(W.Echo->Calls, 1);
  EXPECT_GE(W.Client.stats().Retries, 1u);
  EXPECT_GE(W.Server.stats().CorruptedDropped, 1u);
}

//===----------------------------------------------------------------------===//
// At-most-once (dedup window)
//===----------------------------------------------------------------------===//

TEST(FaultTest, DedupMakesRetriesAtMostOnce) {
  // Same phase trick as RetryLoopSurvivesLoss: the leading one-way shifts
  // the drop pattern so the first attempt's *reply* is transfer 3 (lost).
  // The server already executed the call, so the retry must not run it a
  // second time: the dedup window resends the cached reply instead.
  FaultWorld W(/*DropEveryNth=*/3);
  RetryPolicy Retry;
  Retry.MaxAttempts = 5;
  Retry.AttemptTimeout = ms(20);
  W.Client.setRetryPolicy(Retry);
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(42));
      co_await W.Client.callOneWay(1, 1050, "echo", "echo", Payload);
      Out = co_await W.Client.callReliable(1, 1050, "echo", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_TRUE(Out.hasValue()) << Out.error().str();
  EXPECT_EQ(serial::encodeValues(static_cast<int32_t>(42)), *Out);
  EXPECT_EQ(W.Echo->Calls, 2) << "one-way + exactly one two-way execution";
  EXPECT_EQ(W.Client.stats().Retries, 1u);
  EXPECT_EQ(W.Server.stats().DedupHits, 1u);
  // The first reply's late arrival (it was dropped here, but in general)
  // must not have been misclassified.
  EXPECT_EQ(W.Client.stats().MalformedDropped, 0u);
}

/// A two-way echo call frame from node 0 carrying \p DedupId, as
/// callReliable attempts are framed on the binary TCP stack.
Bytes dedupCallFrame(uint64_t DedupId) {
  serial::OutputArchive Body;
  Body.write(static_cast<uint64_t>(1'000'000 + DedupId)); // CallId.
  Body.write(static_cast<uint8_t>(0x04));                 // FlagHasDedup.
  Body.write(DedupId);
  Body.write(static_cast<int32_t>(0)); // Reply node.
  Body.write(static_cast<int32_t>(1050));
  Body.write(std::string("echo"));
  Body.write(std::string("echo"));
  Bytes Args = serial::encodeValues(static_cast<int32_t>(7));
  Body.write(static_cast<uint32_t>(Args.size()));
  Body.writeRaw(Args);
  Bytes Envelope = serial::encodeEnvelope(serial::WireFormat::NetBinary,
                                          "echo", Body.bytes());
  Bytes Wire(1 + Envelope.size());
  Wire[0] = 0xC1; // KindCall.
  std::copy(Envelope.begin(), Envelope.end(), Wire.begin() + 1);
  return Wire;
}

TEST(FaultTest, DedupWindowEvictsOldestFirst) {
  // 300 logical calls overflow the 256-entry window: the first 44 are
  // evicted in arrival order, the other 256 are still answered from it.
  FaultWorld W;
  auto Send = [&W](uint64_t First, uint64_t Last) {
    for (uint64_t Id = First; Id <= Last; ++Id)
      W.Net.send(0, 1, 1050, dedupCallFrame(Id));
    W.sim().run();
  };
  Send(1, 300);
  EXPECT_EQ(W.Echo->Calls, 300);
  Send(45, 300);
  EXPECT_EQ(W.Echo->Calls, 300) << "a retransmission inside the window ran";
  EXPECT_EQ(W.Server.stats().DedupHits, 256u);
  Send(1, 1);
  EXPECT_EQ(W.Echo->Calls, 301) << "the oldest call was not evicted";
  // Re-running id 1 took the slot of the then-oldest entry, id 45, only.
  Send(46, 46);
  EXPECT_EQ(W.Server.stats().DedupHits, 257u);
  Send(45, 45);
  EXPECT_EQ(W.Echo->Calls, 302);
}

//===----------------------------------------------------------------------===//
// Fault-plan grammar
//===----------------------------------------------------------------------===//

TEST(FaultTest, FaultPlanParsesAndRoundTrips) {
  ErrorOr<fault::FaultPlan> Plan = fault::FaultPlan::parse(
      "seed(7);dropnth(4);crash(2,10s,20s);partition(0,1,3s,4s);"
      "loss(0.01,0,5s);corrupt(0.001);latency(2ms,1s,2s)");
  ASSERT_TRUE(Plan.hasValue()) << Plan.error().str();
  EXPECT_EQ(Plan->Seed, 7u);
  EXPECT_EQ(Plan->DropEveryNth, 4);
  ASSERT_EQ(Plan->Crashes.size(), 1u);
  EXPECT_EQ(Plan->Crashes[0].Node, 2);
  EXPECT_EQ(Plan->Crashes[0].At, SimTime::seconds(10));
  EXPECT_EQ(Plan->Crashes[0].RestartAt, SimTime::seconds(20));
  ASSERT_EQ(Plan->Partitions.size(), 1u);
  ASSERT_EQ(Plan->Losses.size(), 1u);
  ASSERT_EQ(Plan->Corruptions.size(), 1u);
  ASSERT_EQ(Plan->Latencies.size(), 1u);
  EXPECT_FALSE(Plan->empty());
  // A parsed plan re-renders to a spec that parses to the same plan.
  ErrorOr<fault::FaultPlan> Again = fault::FaultPlan::parse(Plan->str());
  ASSERT_TRUE(Again.hasValue()) << Again.error().str();
  EXPECT_EQ(Again->str(), Plan->str());

  // Bare times are seconds; windows keep their values.
  Plan = fault::FaultPlan::parse(
      "crash(1,5);loss(0.01,0,5s);corrupt(1.0,0,5ms);"
      "seed(18446744073709551615)");
  ASSERT_TRUE(Plan.hasValue()) << Plan.error().str();
  EXPECT_EQ(Plan->Crashes[0].At, SimTime::seconds(5));
  EXPECT_EQ(Plan->Losses[0].Probability, 0.01);
  EXPECT_EQ(Plan->Losses[0].Until, SimTime::seconds(5));
  EXPECT_EQ(Plan->Corruptions[0].Probability, 1.0);
  EXPECT_EQ(Plan->Corruptions[0].Until, SimTime::milliseconds(5));
  EXPECT_EQ(Plan->Seed, UINT64_MAX);
  Again = fault::FaultPlan::parse(Plan->str());
  ASSERT_TRUE(Again.hasValue()) << Again.error().str();
  EXPECT_EQ(Again->str(), Plan->str());
}

TEST(FaultTest, FaultPlanRejectsNonsense) {
  for (const char *Bad : {
           "loss(1.5)", "crash(-1,10s)", "crash(1,10s,5s)",
           "partition(0,1,5s,2s)", "wibble(3)",
           // Out of range: these used to wrap or saturate.
           "dropnth(4294967297)", "crash(4294967297,1ms)", "crash(1,1e300)",
           // Not finite.
           "crash(1,nan)", "latency(inf)", "loss(nan)",
           // Hex and '+'-signed numbers.
           "loss(0x1p-3)", "latency(+2ms)"})
    EXPECT_FALSE(fault::FaultPlan::parse(Bad).hasValue()) << Bad;
  EXPECT_TRUE(fault::FaultPlan::parse("").hasValue());
  EXPECT_TRUE(fault::FaultPlan::parse("")->empty());
}

} // namespace
