//===- tests/NetTest.cpp - network model tests ----------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "net/Network.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace parcs;
using namespace parcs::net;
using namespace parcs::sim;

namespace {

std::vector<uint8_t> bytes(size_t N, uint8_t Fill = 0xab) {
  return std::vector<uint8_t>(N, Fill);
}

Task<void> recvOne(Channel<Message> &Port, Message &Out, Simulator &Sim,
                   SimTime &At) {
  Out = co_await Port.recv();
  At = Sim.now();
}

//===----------------------------------------------------------------------===//
// Wire-time math
//===----------------------------------------------------------------------===//

TEST(WireTimeTest, SmallMessageIsOnePacket) {
  Simulator Sim;
  Network Net(Sim, 2);
  // 4 payload bytes + 78 framing = 82 bytes = 656 bits at 100 Mbit.
  EXPECT_EQ(Net.wireTime(4), SimTime::nanoseconds(6560));
}

TEST(WireTimeTest, SegmentsAtMss) {
  Simulator Sim;
  Network Net(Sim, 2);
  // 1461 bytes -> 2 packets -> 2x framing overhead.
  SimTime One = Net.wireTime(1460);
  SimTime Two = Net.wireTime(1461);
  double ExtraBits = (1 + 78) * 8;
  EXPECT_NEAR((Two - One).toSecondsF(), ExtraBits / 100e6, 1e-12);
}

TEST(WireTimeTest, LargeMessageApproachesGoodputCeiling) {
  Simulator Sim;
  Network Net(Sim, 2);
  size_t Payload = 1 << 20;
  double Seconds = Net.wireTime(Payload).toSecondsF();
  double Goodput = static_cast<double>(Payload) / Seconds;
  // 1460/1538 of 12.5 MB/s ~= 11.87 MB/s.
  EXPECT_NEAR(Goodput / 1e6, 11.87, 0.05);
}

TEST(WireTimeTest, ZeroPayloadStillCostsAFrame) {
  Simulator Sim;
  Network Net(Sim, 2);
  EXPECT_GT(Net.wireTime(0), SimTime());
}

//===----------------------------------------------------------------------===//
// Delivery
//===----------------------------------------------------------------------===//

TEST(NetworkTest, DeliversPayloadIntact) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &Port = Net.bind(1, 50);
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  Message Got;
  SimTime At;
  Sim.spawn(recvOne(Port, Got, Sim, At));
  Net.send(0, 1, 50, Payload);
  Sim.run();
  EXPECT_EQ(Got.Payload, Payload);
  EXPECT_EQ(Got.Src, 0);
  EXPECT_EQ(Got.Dst, 1);
  EXPECT_EQ(Got.Port, 50);
  EXPECT_EQ(Net.messagesDelivered(), 1u);
  EXPECT_EQ(Net.payloadBytesDelivered(), 5u);
}

TEST(NetworkTest, DeliveryTimeMatchesModel) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &Port = Net.bind(1, 50);
  Message Got;
  SimTime At;
  Sim.spawn(recvOne(Port, Got, Sim, At));
  Net.send(0, 1, 50, bytes(1000));
  Sim.run();
  // Cut-through: first packet time + switch latency + full wire time.
  SimTime Expected = Net.firstPacketTime(1000) + calib::SwitchLatency +
                     Net.wireTime(1000);
  EXPECT_EQ(At, Expected);
}

TEST(NetworkTest, InOrderDeliveryFromOneSource) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &Port = Net.bind(1, 9);
  std::vector<int> Order;
  struct Drain {
    static Task<void> run(Channel<Message> &Port, std::vector<int> &Order) {
      for (int I = 0; I < 5; ++I) {
        Message M = co_await Port.recv();
        Order.push_back(M.Payload[0]);
      }
    }
  };
  Sim.spawn(Drain::run(Port, Order));
  for (uint8_t I = 0; I < 5; ++I)
    Net.send(0, 1, 9, {I});
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(NetworkTest, TxSerialisesBackToBackSends) {
  // Two 100 KB messages from node 0: the second's delivery is one full
  // wire time after the first's.
  Simulator Sim;
  Network Net(Sim, 3);
  auto &PortA = Net.bind(1, 1);
  auto &PortB = Net.bind(2, 1);
  Message GotA, GotB;
  SimTime AtA, AtB;
  Sim.spawn(recvOne(PortA, GotA, Sim, AtA));
  Sim.spawn(recvOne(PortB, GotB, Sim, AtB));
  size_t Size = 100 * 1000;
  Net.send(0, 1, 1, bytes(Size));
  Net.send(0, 2, 1, bytes(Size));
  Sim.run();
  EXPECT_NEAR((AtB - AtA).toSecondsF(), Net.wireTime(Size).toSecondsF(),
              1e-9);
}

TEST(NetworkTest, RxPortContentionSerialisesConcurrentSenders) {
  // Nodes 1 and 2 both send 100 KB to node 0 at t=0.  Their transmissions
  // overlap, but node 0's downlink can only carry one at wire rate: the
  // second delivery is ~one wire time after the first.
  Simulator Sim;
  Network Net(Sim, 3);
  auto &Port = Net.bind(0, 7);
  std::vector<SimTime> Arrivals;
  struct Drain {
    static Task<void> run(Simulator &Sim, Channel<Message> &Port,
                          std::vector<SimTime> &Arrivals) {
      for (int I = 0; I < 2; ++I) {
        (void)co_await Port.recv();
        Arrivals.push_back(Sim.now());
      }
    }
  };
  Sim.spawn(Drain::run(Sim, Port, Arrivals));
  size_t Size = 100 * 1000;
  Net.send(1, 0, 7, bytes(Size));
  Net.send(2, 0, 7, bytes(Size));
  Sim.run();
  ASSERT_EQ(Arrivals.size(), 2u);
  EXPECT_NEAR((Arrivals[1] - Arrivals[0]).toSecondsF(),
              Net.wireTime(Size).toSecondsF(), 1e-9);
}

/// Collects every message a port receives, with its arrival time.
Task<void> recvAll(Simulator &Sim, Channel<Message> &Port, int Count,
                   std::vector<std::pair<int, SimTime>> &Got) {
  for (int I = 0; I < Count; ++I) {
    Message M = co_await Port.recv();
    Got.emplace_back(M.Payload.empty() ? -1 : M.Payload[0], Sim.now());
  }
}

/// Delivery time of a \p Size-byte message that starts transmitting at
/// \p TxStart onto an idle downlink.
SimTime idleArrival(const Network &Net, SimTime TxStart, size_t Size) {
  return TxStart + Net.firstPacketTime(Size) + calib::SwitchLatency +
         Net.wireTime(Size);
}

TEST(NetworkTest, QueuedMessageReservesReceiverWhenItStarts) {
  // Node 0 sends a long message to node 1, then a short one to node 2; the
  // short one waits for the uplink.  Node 3 sends to node 2 later, on an
  // idle uplink, but before the short one starts: it must take node 2's
  // downlink first, because a queued message reserves the receiver only
  // when it starts transmitting.
  Simulator Sim;
  Network Net(Sim, 4);
  auto &Long = Net.bind(1, 1);
  auto &Shared = Net.bind(2, 1);
  std::vector<std::pair<int, SimTime>> AtOne, AtTwo;
  Sim.spawn(recvAll(Sim, Long, 1, AtOne));
  Sim.spawn(recvAll(Sim, Shared, 2, AtTwo));
  size_t LongSize = 100 * 1000, Queued = 100, Later = 1000;
  SimTime LaterAt = SimTime::milliseconds(1);
  Net.send(0, 1, 1, bytes(LongSize, 1));
  Net.send(0, 2, 1, bytes(Queued, 2));
  Sim.schedule(LaterAt, [&Net, Later] { Net.send(3, 2, 1, bytes(Later, 3)); });
  Sim.run();

  SimTime LongWire = Net.wireTime(LongSize);
  ASSERT_EQ(AtOne.size(), 1u);
  EXPECT_EQ(AtOne[0].second, idleArrival(Net, SimTime(), LongSize));
  ASSERT_EQ(AtTwo.size(), 2u);
  EXPECT_EQ(AtTwo[0].first, 3) << "the queued message took the downlink "
                                  "before it started";
  EXPECT_EQ(AtTwo[0].second, idleArrival(Net, LaterAt, Later));
  ASSERT_LT(AtTwo[0].second, LongWire) << "the reservations must not touch";
  EXPECT_EQ(AtTwo[1].first, 2);
  EXPECT_EQ(AtTwo[1].second, idleArrival(Net, LongWire, Queued));
}

TEST(NetworkTest, QueuedMessagesLeaveOneUplinkBackToBack) {
  // One long message holds node 0's uplink while three more queue behind
  // it, each to its own idle receiver: they leave in send order, each
  // starting the instant the one before it finishes transmitting.
  Simulator Sim;
  Network Net(Sim, 5);
  std::vector<size_t> Sizes = {20 * 1000, 3000, 200, 5000};
  std::vector<std::vector<std::pair<int, SimTime>>> Got(Sizes.size());
  for (int Dst = 1; Dst <= 4; ++Dst)
    Sim.spawn(recvAll(Sim, Net.bind(Dst, 1), 1, Got[size_t(Dst - 1)]));
  for (int Dst = 1; Dst <= 4; ++Dst)
    Net.send(0, Dst, 1,
             bytes(Sizes[size_t(Dst - 1)], static_cast<uint8_t>(Dst)));
  Sim.run();

  SimTime TxStart;
  for (size_t I = 0; I < Sizes.size(); ++I) {
    SCOPED_TRACE(I);
    ASSERT_EQ(Got[I].size(), 1u);
    EXPECT_EQ(Got[I][0].second, idleArrival(Net, TxStart, Sizes[I]));
    TxStart = TxStart + Net.wireTime(Sizes[I]);
  }
  EXPECT_EQ(Net.messagesDelivered(), 4u);
}

/// Fault hook that only adds latency: \p Extra on every message from
/// \p SlowSrc, none elsewhere.
class LatencyHook : public FaultHook {
public:
  LatencyHook(int SlowSrc, SimTime Extra) : SlowSrc(SlowSrc), Extra(Extra) {}
  bool nodeAlive(int) const override { return true; }
  SimTime extraLatency(int Src, int) override {
    return Src == SlowSrc ? Extra : SimTime();
  }
  Verdict onDeliver(int, int, std::vector<uint8_t> &) override {
    return Verdict::Deliver;
  }

private:
  int SlowSrc;
  SimTime Extra;
};

TEST(NetworkTest, FaultLatencyDelaysDeliveryAndCanReorderSenders) {
  // Nodes 1 and 2 send to node 0 at once; node 1's message reserves the
  // downlink first and drains first, but a 1 ms extra latency on 1 -> 0
  // holds it past node 2's.
  Simulator Sim;
  Network Net(Sim, 3);
  SimTime Extra = SimTime::milliseconds(1);
  LatencyHook Hook(1, Extra);
  Net.setFaultHook(&Hook);
  std::vector<std::pair<int, SimTime>> Got;
  Sim.spawn(recvAll(Sim, Net.bind(0, 7), 2, Got));
  size_t Size = 2000;
  Net.send(1, 0, 7, bytes(Size, 1));
  Net.send(2, 0, 7, bytes(Size, 2));
  Sim.run();

  SimTime FirstDrained = idleArrival(Net, SimTime(), Size);
  SimTime SecondDrained = FirstDrained + Net.wireTime(Size);
  ASSERT_LT(SecondDrained, FirstDrained + Extra);
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].first, 2);
  EXPECT_EQ(Got[0].second, SecondDrained);
  EXPECT_EQ(Got[1].first, 1);
  EXPECT_EQ(Got[1].second, FirstDrained + Extra);
  EXPECT_EQ(Net.messagesDelivered(), 2u);
}

TEST(NetworkTest, LoopbackBypassesWire) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &Port = Net.bind(0, 3);
  Message Got;
  SimTime At;
  Sim.spawn(recvOne(Port, Got, Sim, At));
  Net.send(0, 0, 3, bytes(1 << 20));
  Sim.run();
  EXPECT_EQ(At, SimTime());
  EXPECT_EQ(Got.Payload.size(), static_cast<size_t>(1 << 20));
  EXPECT_EQ(Net.wireBytesCarried(), 0u);
}

TEST(NetworkTest, DistinctPortsAreIndependent) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &P1 = Net.bind(1, 1);
  auto &P2 = Net.bind(1, 2);
  Message M1, M2;
  SimTime T1, T2;
  Sim.spawn(recvOne(P1, M1, Sim, T1));
  Sim.spawn(recvOne(P2, M2, Sim, T2));
  Net.send(0, 1, 2, {2});
  Net.send(0, 1, 1, {1});
  Sim.run();
  EXPECT_EQ(M1.Payload[0], 1);
  EXPECT_EQ(M2.Payload[0], 2);
}

TEST(NetworkTest, BindTwiceReturnsSameChannel) {
  Simulator Sim;
  Network Net(Sim, 2);
  EXPECT_EQ(&Net.bind(1, 5), &Net.bind(1, 5));
  EXPECT_TRUE(Net.isBound(1, 5));
  EXPECT_FALSE(Net.isBound(0, 5));
}

//===----------------------------------------------------------------------===//
// Ping-pong sanity: latency ordering of the raw fabric
//===----------------------------------------------------------------------===//

Task<void> pingPong(Simulator &Sim, Network &Net, int Rounds, size_t Size,
                    SimTime &Elapsed) {
  auto &Pong = Net.bind(0, 100);
  SimTime Start = Sim.now();
  for (int I = 0; I < Rounds; ++I) {
    Net.send(0, 1, 200, bytes(Size));
    (void)co_await Pong.recv();
  }
  Elapsed = Sim.now() - Start;
}

Task<void> echoServer(Network &Net, int Rounds) {
  auto &Ping = Net.bind(1, 200);
  for (int I = 0; I < Rounds; ++I) {
    Message M = co_await Ping.recv();
    Net.send(1, 0, 100, std::move(M.Payload));
  }
}

TEST(NetworkTest, RawFabricRoundTripIsTensOfMicroseconds) {
  Simulator Sim;
  Network Net(Sim, 2);
  SimTime Elapsed;
  int Rounds = 100;
  Sim.spawn(echoServer(Net, Rounds));
  Sim.spawn(pingPong(Sim, Net, Rounds, 4, Elapsed));
  Sim.run();
  double OneWayUs = Elapsed.toMicrosF() / (2.0 * Rounds);
  // Raw wire+switch latency must sit well below the software stacks'
  // 100-520 us one-way figures.
  EXPECT_GT(OneWayUs, 5.0);
  EXPECT_LT(OneWayUs, 30.0);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto RunOnce = [] {
    Simulator Sim;
    Network Net(Sim, 2);
    SimTime Elapsed;
    Sim.spawn(echoServer(Net, 10));
    Sim.spawn(pingPong(Sim, Net, 10, 1024, Elapsed));
    Sim.run();
    return Elapsed;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

} // namespace
