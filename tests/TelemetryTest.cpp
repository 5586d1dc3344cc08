//===- tests/TelemetryTest.cpp - In-band telemetry plane ------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The live telemetry plane end to end: spec/SLO grammar parsing, cluster
// series assembled from in-band snapshots, the determinism contract (the
// export is byte-identical across repeated runs), SLO breach/recover
// edges, the crash flight recorder, and the parcs_top rendering.
//
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"
#include "fault/Injector.h"
#include "net/Network.h"
#include "support/Metrics.h"
#include "support/PostMortem.h"
#include "support/TelemetrySink.h"
#include "support/Trace.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Slo.h"
#include "telemetry/Telemetry.h"
#include "telemetry/TopReport.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace parcs;

namespace {

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(SloSpecTest, ParsesTheDocumentedForm) {
  telemetry::SloSpec S;
  ASSERT_TRUE(telemetry::parseSloSpec(
      "slo(rpc.call.latency, p99 < 2ms, window=100ms)", S));
  EXPECT_EQ(S.Series, "rpc.call.latency");
  EXPECT_EQ(S.Percentile, 99.0);
  EXPECT_EQ(S.ThresholdNs, 2'000'000);
  EXPECT_EQ(S.WindowNs, 100'000'000);
  EXPECT_FALSE(S.Text.empty());

  ASSERT_TRUE(telemetry::parseSloSpec(
      "slo(app.round.latency, p99.9 < 750us, window=10ms)", S));
  EXPECT_EQ(S.Series, "app.round.latency");
  EXPECT_EQ(S.Percentile, 99.9);
  EXPECT_EQ(S.ThresholdNs, 750'000);
}

TEST(SloSpecTest, RejectsMalformedSpecs) {
  telemetry::SloSpec S;
  EXPECT_FALSE(telemetry::parseSloSpec("p99 < 2ms", S)) << "missing wrapper";
  EXPECT_FALSE(telemetry::parseSloSpec("slo(x, q99 < 2ms, window=1ms)", S));
  EXPECT_FALSE(telemetry::parseSloSpec("slo(x, p101 < 2ms, window=1ms)", S));
  EXPECT_FALSE(telemetry::parseSloSpec("slo(x, p99 < 0, window=1ms)", S));
  EXPECT_FALSE(telemetry::parseSloSpec("slo(x, p99 < 2ms)", S))
      << "window clause is mandatory";
  EXPECT_FALSE(telemetry::parseSloSpec("slo(, p99 < 2ms, window=1ms)", S));
  // Out of range: used to wrap to a 1 ns threshold.
  EXPECT_FALSE(telemetry::parseSloSpec(
      "slo(x, p99 < 18446744073709551617ns, window=1ms)", S));
}

TEST(SloSpecTest, ParsesSemicolonSeparatedLists) {
  std::vector<telemetry::SloSpec> Out;
  ASSERT_TRUE(telemetry::parseSloSpecs(
      "slo(a, p50 < 1ms, window=5ms); slo(b, p99 < 2us, window=10us)", Out));
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].Series, "a");
  EXPECT_EQ(Out[1].Series, "b");

  // A bad entry anywhere rejects the list and leaves Out unchanged.
  std::string Bad;
  EXPECT_FALSE(telemetry::parseSloSpecs(
      "slo(a, p50 < 1ms, window=5ms); nonsense", Out, &Bad));
  EXPECT_EQ(Out.size(), 2u);
  EXPECT_FALSE(Bad.empty());
}

TEST(TelemetrySpecTest, ParsesPathAndOptions) {
  telemetry::TelemetrySpec S;
  ASSERT_TRUE(telemetry::parseTelemetrySpec("tele.json", S));
  EXPECT_EQ(S.Path, "tele.json");
  EXPECT_EQ(S.WindowNs, 1'000'000);
  EXPECT_EQ(S.FlushNs, 0);
  EXPECT_EQ(S.CollectorNode, 0);

  ASSERT_TRUE(telemetry::parseTelemetrySpec(
      "t.json,window=2ms,flush=4ms,collector=1,port=800", S));
  EXPECT_EQ(S.WindowNs, 2'000'000);
  EXPECT_EQ(S.FlushNs, 4'000'000);
  EXPECT_EQ(S.CollectorNode, 1);
  EXPECT_EQ(S.Port, 800);

  // A bare duration is nanoseconds here (seconds in a fault plan).
  ASSERT_TRUE(telemetry::parseTelemetrySpec("t.json,window=5", S));
  EXPECT_EQ(S.WindowNs, 5);

  // The slo() value contains commas; the paren-aware splitter must keep
  // them inside the option instead of splitting the spec apart.
  ASSERT_TRUE(telemetry::parseTelemetrySpec(
      "t.json,slo=slo(rpc.call.latency, p99 < 2ms, window=100ms),window=1ms",
      S));
  ASSERT_EQ(S.Slos.size(), 1u);
  EXPECT_EQ(S.Slos[0].Series, "rpc.call.latency");
  EXPECT_EQ(S.WindowNs, 1'000'000);
}

TEST(TelemetrySpecTest, NamesTheBadToken) {
  telemetry::TelemetrySpec S;
  std::string Bad;
  EXPECT_FALSE(telemetry::parseTelemetrySpec("", S, &Bad));
  EXPECT_EQ(Bad, "<empty path>");
  EXPECT_FALSE(telemetry::parseTelemetrySpec("t.json,window=0", S, &Bad));
  EXPECT_EQ(Bad, "window=0");
  EXPECT_FALSE(telemetry::parseTelemetrySpec("t.json,bogus=1", S, &Bad));
  EXPECT_EQ(Bad, "bogus=1");
  EXPECT_FALSE(telemetry::parseTelemetrySpec("t.json,port=0", S, &Bad));
  EXPECT_EQ(Bad, "port=0");
  EXPECT_FALSE(telemetry::parseTelemetrySpec(
      "t.json,slo=slo(x, p99 < 2ms)", S, &Bad));
  EXPECT_EQ(Bad, "slo=slo(x, p99 < 2ms)");
  // Out of range: these used to wrap to port 1, node 0 and 1 ns.
  for (const char *Option : {"port=18446744073709551617",
                             "collector=4294967296",
                             "window=18446744073709551617ns"}) {
    EXPECT_FALSE(
        telemetry::parseTelemetrySpec(std::string("t.json,") + Option, S, &Bad))
        << Option;
    EXPECT_EQ(Bad, Option);
  }
}

//===----------------------------------------------------------------------===//
// Cluster series over a serial fabric
//===----------------------------------------------------------------------===//

/// Eight nodes, each recording one latency sample per microsecond-spaced
/// tick into "tick.latency" plus a "tick.count" counter; values are a pure
/// function of (node, tick) so totals are predictable.
void runTickWorkload(net::Network &Net) {
  struct Driver {
    static sim::Task<void> ticks(net::Network &Net, int Node) {
      for (int T = 0; T < 12; ++T) {
        co_await Net.sim().delay(sim::SimTime::microseconds(1));
        int64_t Now = Net.sim().now().nanosecondsCount();
        telemetry::count(Node, "tick.count", Now);
        telemetry::record(Node, "tick.latency", Now,
                          1000 + Node * 100 + T * 10);
      }
    }
  };
  for (int N = 0; N < Net.nodeCount(); ++N)
    Net.sim().spawn(Driver::ticks(Net, N));
  Net.sim().run();
}

TEST(TelemetryPlaneTest, AssemblesClusterSeriesInBand) {
  vm::Cluster Machines(8, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 8);
  telemetry::TelemetrySpec Spec;
  Spec.WindowNs = 4000; // 4us windows over a ~12us run.
  telemetry::Plane Plane(Net, Spec);
  runTickWorkload(Net);
  std::string Json = Plane.exportJson();

  // Snapshots actually crossed the fabric as framed messages.
  EXPECT_GT(Plane.snapshotsReceived(), 0u);
  EXPECT_EQ(Plane.corruptSnapshots(), 0u);
  EXPECT_GT(Net.wireBytesCarried(), 0u);

  // All 96 records of each kind survive the window/merge pipeline.
  EXPECT_NE(Json.find("\"tick.count\""), std::string::npos);
  EXPECT_NE(Json.find("\"tick.latency\""), std::string::npos);
  EXPECT_NE(Json.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(Json.find("\"kind\": \"counter\""), std::string::npos);
  uint64_t CounterTotal = 0, HistTotal = 0;
  // Count "n": occurrences per series block by scanning between markers.
  size_t CountPos = Json.find("\"tick.count\"");
  size_t LatPos = Json.find("\"tick.latency\"");
  ASSERT_NE(CountPos, std::string::npos);
  ASSERT_NE(LatPos, std::string::npos);
  auto SumN = [&](size_t From, size_t To) {
    uint64_t Sum = 0;
    for (size_t P = Json.find("\"n\": ", From);
         P != std::string::npos && P < To; P = Json.find("\"n\": ", P + 1))
      Sum += std::strtoull(Json.c_str() + P + 5, nullptr, 10);
    return Sum;
  };
  size_t End = Json.find("\"slos\"");
  if (CountPos < LatPos) {
    CounterTotal = SumN(CountPos, LatPos);
    HistTotal = SumN(LatPos, End);
  } else {
    HistTotal = SumN(LatPos, CountPos);
    CounterTotal = SumN(CountPos, End);
  }
  EXPECT_EQ(CounterTotal, 96u) << "12 ticks x 8 nodes";
  EXPECT_EQ(HistTotal, 96u);
}

TEST(TelemetryPlaneTest, RepeatedRunsExportIdenticalJson) {
  auto RunOnce = [] {
    vm::Cluster Machines(8, vm::VmKind::MonoVm117);
    net::Network Net(Machines.sim(), 8);
    telemetry::TelemetrySpec Spec;
    Spec.WindowNs = 4000;
    telemetry::Plane Plane(Net, Spec);
    runTickWorkload(Net);
    return Plane.exportJson();
  };
  std::string First = RunOnce();
  std::string Second = RunOnce();
  EXPECT_FALSE(First.empty());
  EXPECT_EQ(First, Second);
}

//===----------------------------------------------------------------------===//
// SLO breach and recovery
//===----------------------------------------------------------------------===//

TEST(TelemetrySloTest, BreachAndRecoverEdgesFire) {
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  telemetry::TelemetrySpec Spec;
  Spec.WindowNs = 1000;
  telemetry::SloSpec Slo;
  ASSERT_TRUE(telemetry::parseSloSpec(
      "slo(op.latency, p99 < 500ns, window=2us)", Slo));
  Spec.Slos.push_back(Slo);
  telemetry::Plane Plane(Net, Spec);

  struct Driver {
    // Slow (5000ns) samples for 6us, then fast (100ns) for another 10us:
    // the p99-over-2us burns through the threshold, then recovers once
    // the slow windows age out of the SLO span.
    static sim::Task<void> run(net::Network &Net) {
      for (int T = 0; T < 16; ++T) {
        co_await Net.sim().delay(sim::SimTime::nanoseconds(1000));
        int64_t Now = Net.sim().now().nanosecondsCount();
        telemetry::record(1, "op.latency", Now, T < 6 ? 5000 : 100);
      }
    }
  };
  Net.sim().spawn(Driver::run(Net));
  Net.sim().run();
  std::string Json = Plane.exportJson();

  EXPECT_NE(Json.find("\"kind\": \"breach\""), std::string::npos)
      << "expected a breach edge:\n"
      << Json;
  EXPECT_NE(Json.find("\"kind\": \"recover\""), std::string::npos)
      << "expected a recover edge once fast samples displace slow ones:\n"
      << Json;
  // Both burn counters moved off zero.
  EXPECT_EQ(Json.find("\"fast_burn_windows\": 0,"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("\"slow_burn_windows\": 0,"), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorderTest, CrashWritesPostMortemDump) {
  std::string Path = testing::TempDir() + "parcs_flight_dump.json";
  std::remove(Path.c_str());
  {
    telemetry::FlightRecorder Flight(Path);
    vm::Cluster Machines(2, vm::VmKind::MonoVm117);
    net::Network Net(Machines.sim(), 2);
    ErrorOr<fault::FaultPlan> Plan = fault::FaultPlan::parse("crash(1,5us)");
    ASSERT_TRUE(Plan.hasValue()) << Plan.error().str();
    fault::Injector Chaos(Machines.sim(), *Plan);
    Chaos.attach(Machines, Net);

    struct Driver {
      static sim::Task<void> run(net::Network &Net) {
        for (int T = 0; T < 10; ++T) {
          co_await Net.sim().delay(sim::SimTime::microseconds(1));
          trace::instant(0, 0, "tick", Net.sim().now().nanosecondsCount());
        }
      }
    };
    Net.sim().spawn(Driver::run(Net));
    Net.sim().run();
    EXPECT_EQ(Flight.dumps(), 1u) << "the fault-plan crash must fire the "
                                     "postmortem hook exactly once";
  }

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr) << "dump file missing: " << Path;
  std::string Body;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Body.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());

  EXPECT_NE(Body.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_NE(Body.find("\"node\": 1"), std::string::npos);
  EXPECT_NE(Body.find("\"trace\""), std::string::npos);
  EXPECT_NE(Body.find("\"metrics\""), std::string::npos);
  // The flight tail captured the pre-crash ticks without full tracing on.
  EXPECT_NE(Body.find("\"tick\""), std::string::npos);
}

TEST(FlightRecorderTest, RetryExhaustionFiresToo) {
  // The postmortem hook is not crash-only: a handler sees retry
  // exhaustion from the remoting engine as well.  Unit-check the hook
  // contract directly (the engine path is exercised in FaultTest).
  struct Capture {
    std::string Reason;
    int Node = -1;
    int64_t AtNs = -1;
  } Got;
  postmortem::setHandler(
      [](void *Self, const char *Reason, int Node, int64_t AtNs) {
        auto *C = static_cast<Capture *>(Self);
        C->Reason = Reason;
        C->Node = Node;
        C->AtNs = AtNs;
      },
      &Got);
  postmortem::fire("retries_exhausted", 3, 12345);
  postmortem::clearHandler(&Got);
  EXPECT_EQ(Got.Reason, "retries_exhausted");
  EXPECT_EQ(Got.Node, 3);
  EXPECT_EQ(Got.AtNs, 12345);
  // Cleared: firing again is a no-op.
  postmortem::fire("crash", 0, 1);
  EXPECT_EQ(Got.Reason, "retries_exhausted");
}

//===----------------------------------------------------------------------===//
// parcs_top rendering
//===----------------------------------------------------------------------===//

TEST(TopReportTest, RendersTablesAndTimeline) {
  vm::Cluster Machines(8, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 8);
  telemetry::TelemetrySpec Spec;
  Spec.WindowNs = 4000;
  telemetry::SloSpec Slo;
  ASSERT_TRUE(telemetry::parseSloSpec(
      "slo(tick.latency, p99 < 1200ns, window=8us)", Slo));
  Spec.Slos.push_back(Slo);
  telemetry::Plane Plane(Net, Spec);
  runTickWorkload(Net);
  std::string Json = Plane.exportJson();

  std::string Report;
  ASSERT_TRUE(telemetry::renderTopReport(Json, Report)) << Report;
  EXPECT_NE(Report.find("tick.latency"), std::string::npos);
  EXPECT_NE(Report.find("tick.count"), std::string::npos);
  EXPECT_NE(Report.find("p99"), std::string::npos);
  EXPECT_NE(Report.find("p999"), std::string::npos);
  EXPECT_NE(Report.find("SLO timeline"), std::string::npos);
  EXPECT_NE(Report.find("BREACH"), std::string::npos)
      << "node 7 latencies (>= 1700ns) must breach the 1200ns p99:\n"
      << Report;

  std::string Diag;
  EXPECT_FALSE(telemetry::renderTopReport("not json", Diag));
  EXPECT_FALSE(telemetry::renderTopReport("{\"other\": 1}", Diag));
}

} // namespace
