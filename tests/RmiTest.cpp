//===- tests/RmiTest.cpp - Java RMI facade tests --------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "rmi/Rmi.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::rmi;
using namespace parcs::sim;

namespace {

/// Fig. 1's DivideServer, as a unicast remote object.
class DivideServer : public UnicastRemoteObject {
public:
  explicit DivideServer(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method == "divide") {
      double A = 0, B = 0;
      if (!serial::decodeValues(Args, A, B))
        co_return Error(ErrorCode::MalformedMessage, "divide args");
      co_await Host.compute(SimTime::microseconds(1));
      co_return serial::encodeValues(A / B);
    }
    co_return Error(ErrorCode::UnknownMethod, std::string(Method));
  }

private:
  vm::Node &Host;
};

struct RmiWorld {
  explicit RmiWorld(int Nodes = 2)
      : Machines(Nodes, vm::VmKind::SunJvm142), Net(Machines.sim(), Nodes) {
    for (int I = 0; I < Nodes; ++I)
      Endpoints.push_back(std::make_unique<RpcEndpoint>(
          Machines.node(I), Net,
          remoting::stackProfile(remoting::StackKind::JavaRmi),
          RegistryPort));
    // The registry runs on node 0, like `rmiregistry` on the head node.
    installRegistry(*Endpoints[0]);
  }

  Simulator &sim() { return Machines.sim(); }
  RpcEndpoint &ep(int I) { return *Endpoints[static_cast<size_t>(I)]; }

  vm::Cluster Machines;
  net::Network Net;
  std::vector<std::unique_ptr<RpcEndpoint>> Endpoints;
};

//===----------------------------------------------------------------------===//
// URI parsing
//===----------------------------------------------------------------------===//

TEST(RmiUriTest, ParsesFull) {
  auto U = parseRmiUri("rmi://node1:1099/DivideServer");
  ASSERT_TRUE(U.hasValue());
  EXPECT_EQ(U->Node, 1);
  EXPECT_EQ(U->Port, 1099);
  EXPECT_EQ(U->Name, "DivideServer");
}

TEST(RmiUriTest, DefaultsPort) {
  auto U = parseRmiUri("rmi://localhost/Div");
  ASSERT_TRUE(U.hasValue());
  EXPECT_EQ(U->Node, 0);
  EXPECT_EQ(U->Port, RegistryPort);
}

TEST(RmiUriTest, RejectsMalformed) {
  EXPECT_FALSE(parseRmiUri("tcp://node0:1/x").hasValue());
  EXPECT_FALSE(parseRmiUri("rmi://node0:1").hasValue());
  EXPECT_FALSE(parseRmiUri("rmi://host:1/x").hasValue());
  EXPECT_FALSE(parseRmiUri("rmi://node0:9x/x").hasValue());
  // Out of range: used to wrap to port 1099.
  EXPECT_FALSE(parseRmiUri("rmi://node1:4294968395/x").hasValue());
}

//===----------------------------------------------------------------------===//
// Registry + calls
//===----------------------------------------------------------------------===//

Task<void> bindLookupDivide(RmiWorld &W, ErrorOr<double> &Out) {
  // Server side (node 1): export + rebind, as in the paper's Fig. 1.
  W.ep(1).publish("DivideServerImpl",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  Error BindErr = co_await Naming::rebind(
      W.ep(1), "rmi://node0:1099/DivideServer", "DivideServerImpl");
  EXPECT_FALSE(BindErr) << BindErr.str();

  // Client side (node 0): lookup then call.
  auto Handle =
      co_await Naming::lookup(W.ep(0), "rmi://node0:1099/DivideServer");
  EXPECT_TRUE(Handle.hasValue());
  if (!Handle)
    co_return;
  Out = co_await Handle->invokeTyped<double>("divide", 21.0, 6.0);
}

TEST(RmiTest, BindLookupInvoke) {
  RmiWorld W;
  ErrorOr<double> Out(0.0);
  W.sim().spawn(bindLookupDivide(W, Out));
  W.sim().run();
  ASSERT_TRUE(Out.hasValue());
  EXPECT_DOUBLE_EQ(*Out, 3.5);
}

TEST(RmiTest, LookupUnboundNameFails) {
  RmiWorld W;
  ErrorOr<remoting::RemoteHandle> Out(remoting::RemoteHandle{});
  struct Proc {
    static Task<void> run(RmiWorld &W,
                          ErrorOr<remoting::RemoteHandle> &Out) {
      Out = co_await Naming::lookup(W.ep(0), "rmi://node0:1099/Nothing");
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.error().code(), ErrorCode::UnknownObject);
}

TEST(RmiTest, RebindReplacesAndUnbindRemoves) {
  RmiWorld W;
  std::vector<std::string> Listed;
  bool UnbindOk = false, LookupAfterUnbind = true;
  struct Proc {
    static Task<void> run(RmiWorld &W, std::vector<std::string> &Listed,
                          bool &UnbindOk, bool &LookupAfterUnbind) {
      W.ep(1).publish("A", std::make_shared<DivideServer>(W.Machines.node(1)));
      W.ep(1).publish("B", std::make_shared<DivideServer>(W.Machines.node(1)));
      (void)co_await Naming::rebind(W.ep(1), "rmi://node0:1099/Svc", "A");
      (void)co_await Naming::rebind(W.ep(1), "rmi://node0:1099/Svc", "B");
      (void)co_await Naming::rebind(W.ep(1), "rmi://node0:1099/Other", "A");
      auto Names = co_await Naming::list(W.ep(0), "rmi://node0:1099/ignored");
      if (Names)
        Listed = *Names;
      Error E = co_await Naming::unbind(W.ep(1), "rmi://node0:1099/Other");
      UnbindOk = !E;
      auto Handle = co_await Naming::lookup(W.ep(0), "rmi://node0:1099/Other");
      LookupAfterUnbind = Handle.hasValue();
    }
  };
  W.sim().spawn(Proc::run(W, Listed, UnbindOk, LookupAfterUnbind));
  W.sim().run();
  EXPECT_EQ(Listed, (std::vector<std::string>{"Other", "Svc"}));
  EXPECT_TRUE(UnbindOk);
  EXPECT_FALSE(LookupAfterUnbind);
}

//===----------------------------------------------------------------------===//
// Latency calibration: RMI is the slowest stack (520 us one-way)
//===----------------------------------------------------------------------===//

Task<void> rmiLatency(RmiWorld &W, int Rounds, double &OneWayUs) {
  W.ep(1).publish("DivideServerImpl",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  (void)co_await Naming::rebind(W.ep(1), "rmi://node0:1099/Div",
                                "DivideServerImpl");
  auto Handle = co_await Naming::lookup(W.ep(0), "rmi://node0:1099/Div");
  EXPECT_TRUE(Handle.hasValue());
  if (!Handle)
    co_return;
  (void)co_await Handle->invokeTyped<double>("divide", 1.0, 1.0);
  SimTime Start = W.sim().now();
  for (int I = 0; I < Rounds; ++I)
    (void)co_await Handle->invokeTyped<double>("divide", 1.0, 1.0);
  OneWayUs = (W.sim().now() - Start).toMicrosF() / (2.0 * Rounds);
}

TEST(RmiCalibrationTest, OneWayLatencyNear520us) {
  RmiWorld W;
  double OneWayUs = 0;
  W.sim().spawn(rmiLatency(W, 50, OneWayUs));
  W.sim().run();
  EXPECT_NEAR(OneWayUs, 520.0, 60.0);
}

} // namespace
