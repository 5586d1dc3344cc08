//===- tests/NetPropertyTest.cpp - fabric property tests ------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Physical-plausibility properties of the Ethernet model: goodput can
/// never exceed the wire, transfer time is monotone in size, per-pair
/// ordering holds under randomised load, and contention degrades
/// gracefully rather than dropping or duplicating traffic.
///
//===----------------------------------------------------------------------===//

#include "fault/Injector.h"
#include "net/Network.h"
#include "support/Random.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include <map>

using namespace parcs;
using namespace parcs::net;
using namespace parcs::sim;

namespace {

//===----------------------------------------------------------------------===//
// Wire-time properties
//===----------------------------------------------------------------------===//

TEST(NetPropertyTest, WireTimeIsMonotoneInSize) {
  Simulator Sim;
  Network Net(Sim, 2);
  SimTime Last;
  for (size_t Size = 0; Size < 64 * 1024; Size += 977) {
    SimTime Now = Net.wireTime(Size);
    EXPECT_GE(Now, Last) << "size " << Size;
    Last = Now;
  }
}

TEST(NetPropertyTest, GoodputNeverExceedsWireRate) {
  Simulator Sim;
  Network Net(Sim, 2);
  Rng R(5);
  for (int Trial = 0; Trial < 200; ++Trial) {
    size_t Size = 1 + R.nextBelow(2 * 1024 * 1024);
    double Seconds = Net.wireTime(Size).toSecondsF();
    double Goodput = static_cast<double>(Size) / Seconds;
    EXPECT_LT(Goodput, 12.5e6) << "goodput above the 100 Mbit wire";
  }
}

TEST(NetPropertyTest, FirstPacketNeverExceedsWholeMessage) {
  Simulator Sim;
  Network Net(Sim, 2);
  for (size_t Size : {0ul, 1ul, 100ul, 1460ul, 1461ul, 100000ul})
    EXPECT_LE(Net.firstPacketTime(Size), Net.wireTime(Size));
}

//===----------------------------------------------------------------------===//
// Randomised traffic: conservation + per-pair FIFO
//===----------------------------------------------------------------------===//

struct TrafficLog {
  /// Per (src, dst): sequence numbers in delivery order.
  std::map<std::pair<int, int>, std::vector<uint32_t>> Delivered;
  uint64_t Total = 0;
};

/// A positive \p DropEveryNth installs an injector with that dropnth
/// clause as the fabric's fault hook.
TrafficLog runRandomTraffic(uint64_t Seed, int Nodes, int Messages,
                            int DropEveryNth = 0) {
  Simulator Sim;
  Network Net(Sim, Nodes);
  fault::FaultPlan Plan;
  Plan.DropEveryNth = DropEveryNth;
  fault::Injector Chaos(Sim, Plan);
  if (DropEveryNth > 0)
    Net.setFaultHook(&Chaos);
  TrafficLog Log;

  // One drain loop per node.
  struct Drain {
    static Task<void> run(Channel<Message> &Port, TrafficLog &Log) {
      for (;;) {
        Message Msg = co_await Port.recv();
        std::vector<uint8_t> &B = Msg.Payload;
        uint32_t Seq = 0;
        if (B.size() >= 4)
          Seq = static_cast<uint32_t>(B[0]) |
                (static_cast<uint32_t>(B[1]) << 8) |
                (static_cast<uint32_t>(B[2]) << 16) |
                (static_cast<uint32_t>(B[3]) << 24);
        Log.Delivered[{Msg.Src, Msg.Dst}].push_back(Seq);
        ++Log.Total;
      }
    }
  };
  for (int N = 0; N < Nodes; ++N)
    Sim.spawn(Drain::run(Net.bind(N, 7), Log));

  // Random senders.  Sequence numbers are assigned at actual send time
  // (after the random delay), so "in order per pair" is exactly the
  // property the fabric promises: delivery order matches send order.
  Rng R(Seed);
  auto NextSeq =
      std::make_shared<std::map<std::pair<int, int>, uint32_t>>();
  struct Sender {
    static Task<void>
    run(Simulator &Sim, Network &Net, int Src, int Dst, size_t Size,
        SimTime At,
        std::shared_ptr<std::map<std::pair<int, int>, uint32_t>> NextSeq) {
      co_await Sim.delay(At);
      uint32_t Seq = (*NextSeq)[{Src, Dst}]++;
      std::vector<uint8_t> Payload(std::max<size_t>(Size, 4));
      Payload[0] = static_cast<uint8_t>(Seq);
      Payload[1] = static_cast<uint8_t>(Seq >> 8);
      Payload[2] = static_cast<uint8_t>(Seq >> 16);
      Payload[3] = static_cast<uint8_t>(Seq >> 24);
      Net.send(Src, Dst, 7, std::move(Payload));
    }
  };
  for (int M = 0; M < Messages; ++M) {
    int Src = static_cast<int>(R.nextBelow(static_cast<uint64_t>(Nodes)));
    int Dst = static_cast<int>(R.nextBelow(static_cast<uint64_t>(Nodes)));
    if (Dst == Src)
      Dst = (Dst + 1) % Nodes;
    size_t Size = 4 + R.nextBelow(20000);
    SimTime At = SimTime::microseconds(
        static_cast<int64_t>(R.nextBelow(30000)));
    Sim.spawn(Sender::run(Sim, Net, Src, Dst, Size, At, NextSeq));
  }
  Sim.run();
  return Log;
}

class NetTrafficTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetTrafficTest, AllMessagesDeliveredExactlyOnceInPairOrder) {
  const int Nodes = 5, Messages = 300;
  TrafficLog Log = runRandomTraffic(GetParam(), Nodes, Messages);
  EXPECT_EQ(Log.Total, static_cast<uint64_t>(Messages));
  for (const auto &[Pair, Seqs] : Log.Delivered) {
    for (size_t I = 1; I < Seqs.size(); ++I)
      EXPECT_EQ(Seqs[I], Seqs[I - 1] + 1)
          << "pair " << Pair.first << "->" << Pair.second
          << " delivered out of order";
  }
}

TEST_P(NetTrafficTest, DeterministicReplay) {
  TrafficLog A = runRandomTraffic(GetParam(), 4, 150);
  TrafficLog B = runRandomTraffic(GetParam(), 4, 150);
  EXPECT_EQ(A.Delivered, B.Delivered);
}

TEST_P(NetTrafficTest, DropInjectionLosesExactlyThePattern) {
  const int Nodes = 4, Messages = 200, DropNth = 5;
  TrafficLog Log = runRandomTraffic(GetParam(), Nodes, Messages, DropNth);
  EXPECT_EQ(Log.Total, static_cast<uint64_t>(Messages - Messages / DropNth));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetTrafficTest,
                         ::testing::Values(17u, 404u, 987654u));

//===----------------------------------------------------------------------===//
// Contention behaviour
//===----------------------------------------------------------------------===//

TEST(NetPropertyTest, ManyToOneIncastSerialisesAtWireRate) {
  // 7 senders blast 100 KB each at node 0 simultaneously: total delivery
  // time must be at least 7 x wireTime (the downlink is the bottleneck)
  // and not much more.
  Simulator Sim;
  Network Net(Sim, 8);
  size_t Size = 100 * 1000;
  int Senders = 7;
  int Received = 0;
  SimTime LastArrival;
  struct Drain {
    static Task<void> run(Channel<Message> &Port, Simulator &Sim,
                          int Expect, int &Received, SimTime &Last) {
      for (int I = 0; I < Expect; ++I) {
        (void)co_await Port.recv();
        ++Received;
        Last = Sim.now();
      }
    }
  };
  Sim.spawn(Drain::run(Net.bind(0, 1), Sim, Senders, Received,
                       LastArrival));
  for (int S = 1; S <= Senders; ++S)
    Net.send(S, 0, 1, std::vector<uint8_t>(Size, 0x11));
  Sim.run();
  EXPECT_EQ(Received, Senders);
  double Floor = Senders * Net.wireTime(Size).toSecondsF();
  EXPECT_GE(LastArrival.toSecondsF(), Floor);
  EXPECT_LT(LastArrival.toSecondsF(), Floor * 1.05);
}

TEST(NetPropertyTest, DisjointPairsDoNotInterfere) {
  // 0->1 and 2->3 are independent full-duplex paths: concurrent transfers
  // complete in the same time as isolated ones.
  auto TransferTime = [](bool Both) {
    Simulator Sim;
    Network Net(Sim, 4);
    size_t Size = 200 * 1000;
    SimTime DoneA;
    // DoneB must outlive Sim.run(): the drain coroutine writes to it when
    // the transfer lands, long after the if-block below has exited.
    SimTime DoneB;
    struct Drain {
      static Task<void> run(Channel<Message> &Port, Simulator &Sim,
                            SimTime &Done) {
        (void)co_await Port.recv();
        Done = Sim.now();
      }
    };
    Sim.spawn(Drain::run(Net.bind(1, 1), Sim, DoneA));
    Net.send(0, 1, 1, std::vector<uint8_t>(Size, 1));
    if (Both) {
      Sim.spawn(Drain::run(Net.bind(3, 1), Sim, DoneB));
      Net.send(2, 3, 1, std::vector<uint8_t>(Size, 2));
    }
    Sim.run();
    return DoneA;
  };
  EXPECT_EQ(TransferTime(false), TransferTime(true));
}

} // namespace
