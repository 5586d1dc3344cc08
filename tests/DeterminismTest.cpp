//===- tests/DeterminismTest.cpp - Golden event-trace regression ----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The repo's one non-negotiable invariant: the kernel is bit-for-bit
// deterministic.  This test runs a mixed workload -- RPC over both stacks,
// loopback messages, plain timers -- twice, hashing every executed event's
// (index, virtual time), and checks the hash both between the two runs and
// against a golden constant recorded from the current kernel.  A scheduler
// change that reorders so much as one same-timestamp pair of events fails
// here, not in a paper figure three sessions later.
//
// If a change intentionally alters the trace (e.g. it legitimately removes
// events), re-record the constants:
//   PARCS_PRINT_TRACE=1 ./build/tests/determinism_test
// and update the Golden* values below with the printed ones.
//
//===----------------------------------------------------------------------===//

#include "net/Network.h"
#include "remoting/Engine.h"
#include "remoting/Profiles.h"
#include "serial/Archive.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace parcs;
using serial::Bytes;

namespace {

/// FNV-1a over the step stream: order-sensitive, so any reordering of
/// same-timestamp events changes the hash.
struct TraceHash {
  uint64_t State = 14695981039346656037ULL;
  void mix(uint64_t Value) {
    for (int I = 0; I < 8; ++I) {
      State ^= (Value >> (8 * I)) & 0xff;
      State *= 1099511628211ULL;
    }
  }
};

class EchoServer : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    co_return Args;
  }
};

struct RunResult {
  uint64_t Hash = 0;
  uint64_t Events = 0;
  int64_t FinalNs = 0;
  remoting::EndpointStats ClientTcp;
  remoting::EndpointStats ClientHttp;
  uint64_t NetDelivered = 0;
  uint64_t NetPayloadBytes = 0;
  bool DriversFinished = false;
};

RunResult runWorkload() {
  RunResult Out;
  vm::Cluster Machines(3, vm::VmKind::MonoVm117);
  sim::Simulator &Sim = Machines.sim();
  net::Network Net(Sim, 3);

  remoting::RpcEndpoint TcpClient(
      Machines.node(0), Net,
      remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117), 1050);
  remoting::RpcEndpoint TcpServer(
      Machines.node(1), Net,
      remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117), 1050);
  remoting::RpcEndpoint HttpClient(
      Machines.node(0), Net,
      remoting::stackProfile(remoting::StackKind::MonoRemotingHttp117), 2080);
  remoting::RpcEndpoint HttpServer(
      Machines.node(2), Net,
      remoting::stackProfile(remoting::StackKind::MonoRemotingHttp117), 2080);
  TcpServer.publish("echo", std::make_shared<EchoServer>());
  HttpServer.publish("echo", std::make_shared<EchoServer>());

  int Finished = 0;

  // RPC traffic over both stacks, interleaved, with growing payloads.
  struct Rpc {
    static sim::Task<void> run(remoting::RpcEndpoint &Ep, int Dst, int Port,
                               int &Finished) {
      for (int I = 0; I < 8; ++I) {
        Bytes Args = serial::encodeValues(std::string(size_t(8 + 16 * I), 'p'));
        ErrorOr<Bytes> Reply =
            co_await Ep.call(Dst, Port, "echo", "ping", Args);
        EXPECT_TRUE(Reply);
        EXPECT_EQ(Reply.get(), Args);
      }
      ++Finished;
    }
  };
  Sim.spawn(Rpc::run(TcpClient, 1, 1050, Finished));
  Sim.spawn(Rpc::run(HttpClient, 2, 2080, Finished));

  // Loopback traffic: exercises the no-coroutine fast path and the
  // immediate FIFO lane.
  sim::Channel<net::Message> &Local = Net.bind(0, 9000);
  struct Loopback {
    static sim::Task<void> produce(net::Network &Net, int &Finished) {
      for (int I = 0; I < 12; ++I) {
        Net.send(0, 0, 9000, Bytes(size_t(I + 1), uint8_t(I)));
        co_await Net.sim().delay(sim::SimTime::nanoseconds(100 * I));
      }
      ++Finished;
    }
    static sim::Task<void> consume(sim::Channel<net::Message> &Local,
                                   int &Finished) {
      for (int I = 0; I < 12; ++I) {
        net::Message Msg = co_await Local.recv();
        EXPECT_EQ(Msg.Payload.size(), size_t(I + 1));
      }
      ++Finished;
    }
  };
  Sim.spawn(Loopback::produce(Net, Finished));
  Sim.spawn(Loopback::consume(Local, Finished));

  // Plain timers with colliding timestamps, so tie-break order matters.
  struct Timers {
    static sim::Task<void> run(sim::Simulator &Sim, int &Finished) {
      for (int I = 0; I < 32; ++I)
        co_await Sim.delay(sim::SimTime::nanoseconds(I % 4 == 0 ? 0 : 512));
      ++Finished;
    }
  };
  Sim.spawn(Timers::run(Sim, Finished));
  Sim.spawn(Timers::run(Sim, Finished));

  TraceHash Hash;
  while (Sim.step()) {
    Hash.mix(Sim.eventsProcessed());
    Hash.mix(uint64_t(Sim.now().nanosecondsCount()));
  }

  Out.Hash = Hash.State;
  Out.Events = Sim.eventsProcessed();
  Out.FinalNs = Sim.now().nanosecondsCount();
  Out.ClientTcp = TcpClient.stats();
  Out.ClientHttp = HttpClient.stats();
  Out.NetDelivered = Net.messagesDelivered();
  Out.NetPayloadBytes = Net.payloadBytesDelivered();
  Out.DriversFinished = Finished == 6;
  return Out;
}

TEST(DeterminismTest, MixedWorkloadGoldenTrace) {
  RunResult A = runWorkload();
  RunResult B = runWorkload();

  ASSERT_TRUE(A.DriversFinished);
  ASSERT_TRUE(B.DriversFinished);

  // Run-to-run: two executions in one process must agree exactly.
  EXPECT_EQ(A.Hash, B.Hash);
  EXPECT_EQ(A.Events, B.Events);
  EXPECT_EQ(A.FinalNs, B.FinalNs);

  if (std::getenv("PARCS_PRINT_TRACE") != nullptr) {
    std::fprintf(stderr,
                 "GoldenHash       = 0x%016llxULL\n"
                 "GoldenEvents     = %lluULL\n"
                 "GoldenFinalNs    = %lldLL\n"
                 "GoldenDelivered  = %lluULL\n"
                 "GoldenPayload    = %lluULL\n",
                 (unsigned long long)A.Hash, (unsigned long long)A.Events,
                 (long long)A.FinalNs, (unsigned long long)A.NetDelivered,
                 (unsigned long long)A.NetPayloadBytes);
  }

  // Golden constants recorded from the current kernel (see file header for
  // how to re-record after an intentional trace change).
  constexpr uint64_t GoldenHash = 0xa3b6a2a45d790ff1ULL;
  constexpr uint64_t GoldenEvents = 295ULL;
  constexpr int64_t GoldenFinalNs = 32465280LL;
  constexpr uint64_t GoldenDelivered = 44ULL;
  constexpr uint64_t GoldenPayload = 9978ULL;

  EXPECT_EQ(A.Hash, GoldenHash)
      << "event trace changed; if intentional, re-record with "
         "PARCS_PRINT_TRACE=1";
  EXPECT_EQ(A.Events, GoldenEvents);
  EXPECT_EQ(A.FinalNs, GoldenFinalNs);
  EXPECT_EQ(A.NetDelivered, GoldenDelivered);
  EXPECT_EQ(A.NetPayloadBytes, GoldenPayload);

  // Endpoint stats must be identical between runs -- the RPC layer sits on
  // top of the kernel, so this catches ordering drift that happens not to
  // move timestamps.
  EXPECT_EQ(A.ClientTcp.CallsIssued, 8u);
  EXPECT_EQ(A.ClientTcp.RepliesReceived, 8u);
  EXPECT_EQ(A.ClientTcp.WireBytesSent, B.ClientTcp.WireBytesSent);
  EXPECT_EQ(A.ClientTcp.MalformedDropped, 0u);
  EXPECT_EQ(A.ClientHttp.CallsIssued, 8u);
  EXPECT_EQ(A.ClientHttp.RepliesReceived, 8u);
  EXPECT_EQ(A.ClientHttp.WireBytesSent, B.ClientHttp.WireBytesSent);
  EXPECT_EQ(A.ClientHttp.MalformedDropped, 0u);
}

} // namespace
