//===- tests/ParcgenIntegrationTest.cpp - generated-code round trip -------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end check of parcgen: tests/data/accumulator.pci is compiled by
/// the parcgen *tool at build time* (see tests/CMakeLists.txt) into
/// AccumulatorGen.h; this file implements the generated skeleton and
/// drives the generated proxy over a live SCOOPP runtime.
///
//===----------------------------------------------------------------------===//

#include "AccumulatorGen.h"
#include "core/ObjectManager.h"
#include "net/Network.h"
#include "remoting/Profiles.h"
#include "remoting/Remoting.h"
#include "support/Logging.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

using namespace parcs;
using namespace parcs::sim;
using parcstest::gen::AccumulatorProxy;
using parcstest::gen::AccumulatorSkeleton;

namespace {

/// Implementation of the generated skeleton.
class AccumulatorImpl : public AccumulatorSkeleton {
public:
  explicit AccumulatorImpl(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<Unit>> add(int32_t Value) override {
    co_await Host.compute(SimTime::microseconds(1));
    Sum += Value;
    co_return Unit();
  }

  sim::Task<ErrorOr<Unit>> addMany(std::vector<int32_t> Values) override {
    for (int32_t V : Values)
      Sum += V;
    co_return Unit();
  }

  sim::Task<ErrorOr<int32_t>> total() override { co_return Sum; }

  sim::Task<ErrorOr<std::string>> describe(std::string Prefix,
                                           bool Upper) override {
    std::string Text = Prefix + std::to_string(Sum);
    if (Upper)
      std::transform(Text.begin(), Text.end(), Text.begin(), [](char C) {
        return static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
      });
    co_return Text;
  }

  sim::Task<ErrorOr<double>> scale(double Factor) override {
    co_return Sum * Factor;
  }

  sim::Task<ErrorOr<int64_t>> big(int64_t X) override { co_return X * 2; }

  sim::Task<ErrorOr<scoopp::ParallelRef>> self() override {
    co_return SelfRef;
  }

  sim::Task<ErrorOr<Unit>> note(scoopp::ParallelRef Peer) override {
    LastPeer = Peer;
    co_return Unit();
  }

  sim::Task<ErrorOr<int32_t>> checked(int32_t Value) override {
    if (Value < 0)
      co_return Error(ErrorCode::InvalidArgument, "negative value");
    co_return Value;
  }

  sim::Task<ErrorOr<Unit>> fail(std::string Reason) override {
    co_return Error(ErrorCode::InvalidArgument, Reason);
  }

  sim::Task<ErrorOr<std::vector<uint8_t>>>
  reverse(std::vector<uint8_t> Data) override {
    std::reverse(Data.begin(), Data.end());
    co_return Data;
  }

  /// Counts the calls that arrive marshalled.
  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view Method, const remoting::Bytes &Args) override {
    ++Marshalled;
    return AccumulatorSkeleton::handleCall(Method, Args);
  }
  inline static int Marshalled = 0;

  vm::Node &Host;
  int32_t Sum = 0;
  scoopp::ParallelRef SelfRef;
  scoopp::ParallelRef LastPeer;
};

struct GenWorld {
  explicit GenWorld(scoopp::ScooppConfig Config = scoopp::ScooppConfig())
      : Machines(3, vm::VmKind::MonoVm117), Net(Machines.sim(), 3),
        Runtime(
            Machines, Net,
            [] {
              scoopp::ParallelClassRegistry Registry;
              parcstest::gen::registerAccumulatorClass<AccumulatorImpl>(
                  Registry);
              return Registry;
            }(),
            Config) {}

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  scoopp::ScooppRuntime Runtime;
};

TEST(ParcgenIntegrationTest, GeneratedProxyAndSkeletonInteroperate) {
  GenWorld W;
  bool Done = false;
  struct Proc {
    static Task<void> run(GenWorld &W, bool &Done) {
      AccumulatorProxy P(W.Runtime, 0);
      Error E = co_await P.create();
      EXPECT_FALSE(E) << E.str();

      co_await P.add(5);
      co_await P.add(7);
      std::vector<int32_t> More = {1, 2, 3};
      co_await P.addMany(More);

      auto Total = co_await P.total();
      EXPECT_TRUE(Total.hasValue());
      if (Total) {
        EXPECT_EQ(*Total, 18);
      }

      auto Text = co_await P.describe("sum=", true);
      EXPECT_TRUE(Text.hasValue());
      if (Text) {
        EXPECT_EQ(*Text, "SUM=18");
      }

      auto Scaled = co_await P.scale(0.5);
      EXPECT_TRUE(Scaled.hasValue());
      if (Scaled) {
        EXPECT_DOUBLE_EQ(*Scaled, 9.0);
      }

      auto Big = co_await P.big(1LL << 40);
      EXPECT_TRUE(Big.hasValue());
      if (Big) {
        EXPECT_EQ(*Big, 1LL << 41);
      }
      Done = true;
    }
  };
  W.sim().spawn(Proc::run(W, Done));
  W.sim().run();
  EXPECT_TRUE(Done);
}

TEST(ParcgenIntegrationTest, RefArgumentsRoundTrip) {
  GenWorld W;
  bool Done = false;
  struct Proc {
    static Task<void> run(GenWorld &W, bool &Done) {
      AccumulatorProxy A(W.Runtime, 0);
      AccumulatorProxy B(W.Runtime, 0);
      (void)co_await A.create();
      (void)co_await B.create();
      // Pass B's reference to A through the generated ref<> plumbing.
      co_await A.note(B.ref());
      co_await A.flush();
      // Bind a third proxy to B through the wire-transported ref and use
      // it.
      AccumulatorProxy C(W.Runtime, 2);
      C.bind(AccumulatorProxy::ClassName, B.ref());
      co_await C.add(11);
      auto Total = co_await C.total();
      EXPECT_TRUE(Total.hasValue());
      if (Total) {
        EXPECT_EQ(*Total, 11);
      }
      Done = true;
    }
  };
  W.sim().spawn(Proc::run(W, Done));
  W.sim().run();
  EXPECT_TRUE(Done);
}

TEST(ParcgenIntegrationTest, GeneratedAsyncCallsAggregate) {
  GenWorld W;
  struct Proc {
    static Task<void> run(GenWorld &W) {
      AccumulatorProxy P(W.Runtime, 0);
      (void)co_await P.create();
      for (int32_t I = 1; I <= 12; ++I)
        co_await P.add(I);
      auto Total = co_await P.total();
      EXPECT_TRUE(Total.hasValue());
      if (Total) {
        EXPECT_EQ(*Total, 78);
      }
    }
  };
  scoopp::ScooppConfig Config; // Unused here; default world.
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

/// Drives one Accumulator through every method without passive
/// parameters and records each result as text.
struct Script {
  bool Local = false;
  std::vector<std::string> Results;

  static Task<void> run(GenWorld &W, Script &Out) {
    AccumulatorProxy P(W.Runtime, 0);
    Error E = co_await P.create();
    EXPECT_FALSE(E) << E.str();
    Out.Local = P.isLocal();
    co_await P.add(5);
    std::vector<int32_t> More = {1, 2, 3};
    co_await P.addMany(More);
    co_await P.note(P.ref());
    co_await P.flush();
    auto Total = co_await P.total();
    Out.Results.push_back(Total ? std::to_string(*Total) : Total.error().str());
    auto Text = co_await P.describe("sum=", true);
    Out.Results.push_back(Text ? *Text : Text.error().str());
    auto Scaled = co_await P.scale(0.25);
    Out.Results.push_back(Scaled ? std::to_string(*Scaled)
                                 : Scaled.error().str());
    auto Big = co_await P.big(1LL << 40);
    Out.Results.push_back(Big ? std::to_string(*Big) : Big.error().str());
    auto Self = co_await P.self();
    Out.Results.push_back(Self ? std::to_string(Self->valid())
                               : Self.error().str());
  }
};

TEST(ParcgenIntegrationTest, AgglomeratedProxyCallsSkeletonDirectly) {
  AccumulatorImpl::Marshalled = 0;
  GenWorld Remote;
  Script Far;
  Remote.sim().spawn(Script::run(Remote, Far));
  Remote.sim().run();
  EXPECT_FALSE(Far.Local);
  EXPECT_EQ(AccumulatorImpl::Marshalled, 8);

  AccumulatorImpl::Marshalled = 0;
  scoopp::ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  GenWorld Agglomerated(Config);
  Script Near;
  Agglomerated.sim().spawn(Script::run(Agglomerated, Near));
  Agglomerated.sim().run();
  EXPECT_TRUE(Near.Local);
  EXPECT_EQ(AccumulatorImpl::Marshalled, 0) << "a local call marshalled";
  EXPECT_EQ(Agglomerated.Runtime.stats().LocalCalls, 8u);

  EXPECT_EQ(Near.Results, Far.Results);
  EXPECT_EQ(Near.Results,
            (std::vector<std::string>{"11", "SUM=11", std::to_string(2.75),
                                      std::to_string(1LL << 41), "0"}));
}

TEST(ParcgenIntegrationTest, GeneratedDispatchRejectsUnknownMethod) {
  GenWorld W;
  struct Proc {
    static Task<void> run(GenWorld &W) {
      AccumulatorProxy P(W.Runtime, 0);
      (void)co_await P.create();
      auto Out = co_await P.invokeSync("nope", {});
      EXPECT_FALSE(Out.hasValue());
      if (!Out) {
        EXPECT_EQ(Out.error().code(), ErrorCode::UnknownMethod);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ParcgenIntegrationTest, GeneratedDispatchRejectsMalformedArgs) {
  GenWorld W;
  struct Proc {
    static Task<void> run(GenWorld &W) {
      AccumulatorProxy P(W.Runtime, 0);
      (void)co_await P.create();
      remoting::Bytes Junk = {1};
      auto Out = co_await P.invokeSync("scale", Junk);
      EXPECT_FALSE(Out.hasValue());
      if (!Out) {
        EXPECT_EQ(Out.error().code(), ErrorCode::MalformedMessage);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ParcgenIntegrationTest, ByteArrayRoundTripsAsTheElementLoop) {
  GenWorld W;
  bool Done = false;
  struct Proc {
    static Task<void> run(GenWorld &W, bool &Done) {
      AccumulatorProxy P(W.Runtime, 0);
      (void)co_await P.create();
      EXPECT_FALSE(P.isLocal());
      std::vector<uint8_t> Data = {0, 1, 2, 0x7f, 0x80, 0xff};
      auto Reversed = co_await P.reverse(Data);
      EXPECT_TRUE(Reversed.hasValue());
      if (Reversed) {
        EXPECT_EQ(*Reversed,
                  (std::vector<uint8_t>{0xff, 0x80, 0x7f, 2, 1, 0}));
      }
      // On the wire a byte[] is the element loop's encoding: a u32 count,
      // then one byte per element.
      serial::OutputArchive Loop;
      Loop.write(static_cast<uint32_t>(Data.size()));
      for (uint8_t B : Data)
        Loop.write(B);
      EXPECT_EQ(serial::encodeValues(Data), Loop.bytes());
      auto Raw = co_await P.invokeSync("reverse", Loop.take());
      EXPECT_TRUE(Raw.hasValue());
      if (Raw) {
        EXPECT_EQ(*Raw, serial::encodeValues(std::vector<uint8_t>(
                            Data.rbegin(), Data.rend())));
      }
      Done = true;
    }
  };
  W.sim().spawn(Proc::run(W, Done));
  W.sim().run();
  EXPECT_TRUE(Done);
}

/// Calls checked() with a negative value and returns the error code the
/// caller sees (ErrorCode::None when the call succeeded).
struct CheckedCall {
  static Task<void> run(GenWorld &W, bool &Local, ErrorCode &Code) {
    AccumulatorProxy P(W.Runtime, 0);
    (void)co_await P.create();
    Local = P.isLocal();
    auto Out = co_await P.checked(-1);
    Code = Out ? ErrorCode::None : Out.error().code();
  }
};

TEST(ParcgenIntegrationTest, SkeletonErrorReachesSyncCallerOnBothPaths) {
  GenWorld Remote;
  bool RemoteLocal = true;
  ErrorCode RemoteCode = ErrorCode::None;
  Remote.sim().spawn(CheckedCall::run(Remote, RemoteLocal, RemoteCode));
  Remote.sim().run();
  EXPECT_FALSE(RemoteLocal);
  EXPECT_EQ(RemoteCode, ErrorCode::InvalidArgument) << "marshalled path";

  scoopp::ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  GenWorld Agglomerated(Config);
  bool DirectLocal = false;
  ErrorCode DirectCode = ErrorCode::None;
  Agglomerated.sim().spawn(
      CheckedCall::run(Agglomerated, DirectLocal, DirectCode));
  Agglomerated.sim().run();
  EXPECT_TRUE(DirectLocal);
  EXPECT_EQ(DirectCode, ErrorCode::InvalidArgument) << "direct path";
}

TEST(ParcgenIntegrationTest, DirectAsyncFailureIsLogged) {
  scoopp::ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  GenWorld W(Config);
  struct Proc {
    static Task<void> run(GenWorld &W) {
      AccumulatorProxy P(W.Runtime, 0);
      (void)co_await P.create();
      EXPECT_TRUE(P.isLocal());
      co_await P.fail("no such luck");
    }
  };
  LogLevel Saved = logLevel();
  setLogLevel(LogLevel::Warn);
  testing::internal::CaptureStderr();
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  std::string Logged = testing::internal::GetCapturedStderr();
  setLogLevel(Saved);
  EXPECT_NE(Logged.find("local async call 'Accumulator.fail' failed"),
            std::string::npos)
      << Logged;
  EXPECT_NE(Logged.find("no such luck"), std::string::npos) << Logged;
  EXPECT_EQ(W.Runtime.stats().LocalCalls, 1u);
}

TEST(ParcgenIntegrationTest, SkeletonServesABareEndpoint) {
  // The RMI farm's and the ping-pong's shape: the implementation is
  // published on a plain endpoint, with no ScooppRuntime, and called
  // through a RemoteHandle.
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  const remoting::StackProfile &Stack =
      remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117);
  remoting::RpcEndpoint Client(Machines.node(0), Net, Stack, 1050);
  remoting::RpcEndpoint Server(Machines.node(1), Net, Stack, 1050);
  Server.publish("acc", std::make_shared<AccumulatorImpl>(Machines.node(1)));
  bool Done = false;
  struct Proc {
    static Task<void> run(remoting::RpcEndpoint &Client, bool &Done) {
      remoting::RemoteHandle Acc(Client, 1, 1050, "acc");
      auto Added = co_await Acc.invokeTyped<Unit>("add", int32_t(5));
      EXPECT_TRUE(Added.hasValue());
      auto Total = co_await Acc.invokeTyped<int32_t>("total");
      EXPECT_TRUE(Total.hasValue());
      if (Total) {
        EXPECT_EQ(*Total, 5);
      }
      auto Rejected = co_await Acc.invokeTyped<int32_t>("checked", -3);
      EXPECT_FALSE(Rejected.hasValue());
      if (!Rejected) {
        EXPECT_EQ(Rejected.error().code(), ErrorCode::InvalidArgument);
      }
      Done = true;
    }
  };
  Machines.sim().spawn(Proc::run(Client, Done));
  Machines.sim().run();
  EXPECT_TRUE(Done);
}

} // namespace
