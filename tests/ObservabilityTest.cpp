//===- tests/ObservabilityTest.cpp - Trace + metrics layer ----------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Covers the observability subsystem end to end: histogram percentile edge
// cases, metric registry reports, env-knob spec parsing, the log-prefix
// hooks, and -- the load-bearing part -- that the trace recorder is
// deterministic (two identical runs export byte-identical JSON) and that
// the exported Chrome trace-event JSON parses with well-formed node/task
// ids from at least two simulated nodes.
//
//===----------------------------------------------------------------------===//

#include "net/Network.h"
#include "remoting/Engine.h"
#include "remoting/Profiles.h"
#include "serial/Archive.h"
#include "support/Json.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace parcs;
using serial::Bytes;

namespace {

//===----------------------------------------------------------------------===//
// Histogram edge cases.
//===----------------------------------------------------------------------===//

TEST(HistogramTest, EmptyReportsSentinel) {
  metrics::Histogram H;
  EXPECT_EQ(H.Count, 0u);
  // No samples: every percentile is the documented sentinel, never a
  // fabricated 0.0 (which is a legal sample value).
  EXPECT_EQ(H.percentile(0), metrics::Histogram::EmptyPercentile);
  EXPECT_EQ(H.percentile(50), metrics::Histogram::EmptyPercentile);
  EXPECT_EQ(H.percentile(100), metrics::Histogram::EmptyPercentile);
  EXPECT_LT(metrics::Histogram::EmptyPercentile, 0.0)
      << "sentinel must be outside the clamped sample range";
  EXPECT_EQ(H.overflowCount(), 0u);
  EXPECT_NE(H.str().find("no samples"), std::string::npos);
}

TEST(HistogramTest, SingleSampleIsExactEverywhere) {
  metrics::Histogram H;
  H.record(777);
  for (double P : {0.0, 1.0, 50.0, 90.0, 99.0, 100.0})
    EXPECT_EQ(H.percentile(P), 777.0) << "P" << P;
  EXPECT_EQ(H.Min, 777);
  EXPECT_EQ(H.Max, 777);
  EXPECT_EQ(H.mean(), 777.0);
}

TEST(HistogramTest, ZeroAndNegativeSamples) {
  metrics::Histogram H;
  H.record(0);
  H.record(-5); // Clamps to 0.
  EXPECT_EQ(H.Count, 2u);
  EXPECT_EQ(H.Min, 0);
  EXPECT_EQ(H.Sum, 0u);
  EXPECT_EQ(H.percentile(50), 0.0);
  EXPECT_EQ(H.percentile(100), 0.0);
}

TEST(HistogramTest, OverflowBucketClampsToObservedMax) {
  metrics::Histogram H;
  int64_t Huge = int64_t(1) << 50; // Far past the last finite bucket.
  H.record(Huge);
  H.record(Huge + 3);
  EXPECT_EQ(H.overflowCount(), 2u);
  // Interpolation inside the open-ended bucket must never report beyond
  // (or below) what was actually observed.
  EXPECT_GE(H.percentile(99), double(Huge));
  EXPECT_LE(H.percentile(99), double(Huge + 3));
  EXPECT_EQ(H.percentile(100), double(Huge + 3));
}

TEST(HistogramTest, PercentilesAreMonotonicAndBracketed) {
  metrics::Histogram H;
  for (int64_t I = 1; I <= 1000; ++I)
    H.record(I * 100);
  double Last = 0;
  for (double P : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    double V = H.percentile(P);
    EXPECT_GE(V, Last) << "P" << P;
    EXPECT_GE(V, 100.0);
    EXPECT_LE(V, 100000.0);
    Last = V;
  }
  // p50 of a uniform 100..100000 spread lands mid-range (bucketed, so only
  // roughly).
  EXPECT_NEAR(H.percentile(50), 50000.0, 20000.0);
}

//===----------------------------------------------------------------------===//
// Per-window histograms (the telemetry plane's merge unit).
//===----------------------------------------------------------------------===//

TEST(WindowedHistogramTest, EmptyWindowReportsSentinel) {
  metrics::Histogram S;
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.percentile(0), metrics::Histogram::EmptyPercentile);
  EXPECT_EQ(S.percentile(50), metrics::Histogram::EmptyPercentile);
  EXPECT_EQ(S.percentile(99), metrics::Histogram::EmptyPercentile);
}

TEST(WindowedHistogramTest, BucketBoundaryValues) {
  metrics::Histogram S;
  // Exact powers of two sit on log2 bucket boundaries; make sure both the
  // count and the percentile clamp stay exact at the edges.
  for (int64_t V : {1, 2, 4, 1024, 1 << 20})
    S.record(V);
  EXPECT_EQ(S.Count, 5u);
  EXPECT_EQ(S.percentile(0), 1.0);
  EXPECT_EQ(S.percentile(100), double(1 << 20));
  double P50 = S.percentile(50);
  EXPECT_GE(P50, 1.0);
  EXPECT_LE(P50, double(1 << 20));
}

TEST(WindowedHistogramTest, SnapshotMergeMatchesCombinedRecording) {
  // Merging two histograms must equal recording every sample into one --
  // the property the telemetry collector's cross-node merge relies on.
  metrics::Histogram A, B, Both;
  for (int64_t V : {5, 17, 300})
    A.record(V), Both.record(V);
  for (int64_t V : {2, 90000})
    B.record(V), Both.record(V);
  A.merge(B);
  EXPECT_EQ(A.Count, Both.Count);
  EXPECT_EQ(A.Min, Both.Min);
  EXPECT_EQ(A.Max, Both.Max);
  EXPECT_EQ(A.Sum, Both.Sum);
  for (double P : {0.0, 50.0, 99.0, 100.0})
    EXPECT_EQ(A.percentile(P), Both.percentile(P)) << "P" << P;
  // Merging an empty histogram is the identity.
  metrics::Histogram Empty;
  A.merge(Empty);
  EXPECT_EQ(A.Count, Both.Count);
  EXPECT_EQ(A.Min, Both.Min);
}

//===----------------------------------------------------------------------===//
// Registry and reports.
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, FindOrCreateAndReport) {
  metrics::Registry Reg;
  Reg.counter("a.calls").add(3);
  Reg.counter("a.calls").add(2);
  Reg.gauge("a.depth").noteMax(7);
  Reg.gauge("a.depth").noteMax(4); // Lower: ignored.
  Reg.histogram("a.lat_ns").record(1000);
  EXPECT_EQ(Reg.size(), 3u);
  EXPECT_EQ(Reg.counter("a.calls").value(), 5u);
  EXPECT_EQ(Reg.gauge("a.depth").value(), 7);

  std::string Text = Reg.textReport();
  EXPECT_NE(Text.find("a.calls"), std::string::npos);
  EXPECT_NE(Text.find("5"), std::string::npos);
  EXPECT_NE(Text.find("a.depth"), std::string::npos);
  EXPECT_NE(Text.find("a.lat_ns"), std::string::npos);

  Reg.reset();
  EXPECT_EQ(Reg.size(), 0u);
}

TEST(MetricsRegistryTest, JsonReportParses) {
  metrics::Registry Reg;
  Reg.counter("x.count").add(42);
  Reg.gauge("x.level").set(-3);
  metrics::Histogram &H = Reg.histogram("x.lat");
  H.record(10);
  H.record(20);

  json::Value Root;
  ASSERT_TRUE(json::parse(Reg.jsonReport(), Root));
  ASSERT_EQ(Root.K, json::Value::Kind::Object);

  const json::Value *Counters = Root.field("counters");
  ASSERT_NE(Counters, nullptr);
  const json::Value *Count = Counters->field("x.count");
  ASSERT_NE(Count, nullptr);
  EXPECT_EQ(Count->Num, 42.0);

  const json::Value *Gauges = Root.field("gauges");
  ASSERT_NE(Gauges, nullptr);
  const json::Value *Level = Gauges->field("x.level");
  ASSERT_NE(Level, nullptr);
  EXPECT_EQ(Level->Num, -3.0);

  const json::Value *Hists = Root.field("histograms");
  ASSERT_NE(Hists, nullptr);
  const json::Value *Lat = Hists->field("x.lat");
  ASSERT_NE(Lat, nullptr);
  const json::Value *N = Lat->field("n");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->Num, 2.0);
  EXPECT_NE(Lat->field("p50"), nullptr);
  EXPECT_NE(Lat->field("max"), nullptr);
}

//===----------------------------------------------------------------------===//
// Env-knob spec parsing.
//===----------------------------------------------------------------------===//

TEST(SpecParsingTest, MetricsSpec) {
  metrics::ReportSpec S;
  ASSERT_TRUE(metrics::parseMetricsSpec("run.metrics.json", S));
  EXPECT_EQ(S.Path, "run.metrics.json");
  EXPECT_TRUE(S.Json);

  ASSERT_TRUE(metrics::parseMetricsSpec("run.txt", S));
  EXPECT_EQ(S.Path, "run.txt");
  EXPECT_FALSE(S.Json);

  ASSERT_TRUE(metrics::parseMetricsSpec("plain,format=json", S));
  EXPECT_EQ(S.Path, "plain");
  EXPECT_TRUE(S.Json);

  ASSERT_TRUE(metrics::parseMetricsSpec("data.json,format=text", S));
  EXPECT_FALSE(S.Json);

  EXPECT_FALSE(metrics::parseMetricsSpec("", S));
  EXPECT_FALSE(metrics::parseMetricsSpec("x,format=xml", S));
}

TEST(SpecParsingTest, MetricsSpecNamesBadToken) {
  metrics::ReportSpec S;
  std::string Bad;
  EXPECT_FALSE(metrics::parseMetricsSpec("x,format=xml", S, &Bad));
  EXPECT_EQ(Bad, "format=xml");
  EXPECT_FALSE(metrics::parseMetricsSpec("", S, &Bad));
  EXPECT_EQ(Bad, "<empty path>");
  // A good spec must leave the out-param untouched.
  Bad = "sentinel";
  EXPECT_TRUE(metrics::parseMetricsSpec("run.json", S, &Bad));
  EXPECT_EQ(Bad, "sentinel");
}

TEST(SpecParsingTest, TraceSpec) {
  trace::TraceSpec S;
  ASSERT_TRUE(trace::parseTraceSpec("out.trace.json", S));
  EXPECT_EQ(S.Path, "out.trace.json");
  EXPECT_EQ(S.RingCapacity, size_t(1) << 16);

  ASSERT_TRUE(trace::parseTraceSpec("t.json,cap=1024", S));
  EXPECT_EQ(S.Path, "t.json");
  EXPECT_EQ(S.RingCapacity, 1024u);

  EXPECT_FALSE(trace::parseTraceSpec("", S));
  EXPECT_FALSE(trace::parseTraceSpec("t.json,cap=0", S));
  EXPECT_FALSE(trace::parseTraceSpec("t.json,cap=abc", S));
  EXPECT_FALSE(trace::parseTraceSpec("t.json,bogus=1", S));
  // Out of range: used to wrap to a one-event ring.
  EXPECT_FALSE(trace::parseTraceSpec("t.json,cap=18446744073709551617", S));
}

TEST(SpecParsingTest, TraceSpecNamesBadToken) {
  trace::TraceSpec S;
  std::string Bad;
  EXPECT_FALSE(trace::parseTraceSpec("t.json,cap=abc", S, &Bad));
  EXPECT_EQ(Bad, "cap=abc");
  EXPECT_FALSE(trace::parseTraceSpec("t.json,bogus=1", S, &Bad));
  EXPECT_EQ(Bad, "bogus=1");
  EXPECT_FALSE(trace::parseTraceSpec("", S, &Bad));
  EXPECT_EQ(Bad, "<empty path>");
}

//===----------------------------------------------------------------------===//
// Log-prefix hooks (output formatting is visual; here we pin the
// save/restore contracts the Simulator and call sites rely on).
//===----------------------------------------------------------------------===//

TEST(LogContextTest, MalformedLevelWarnsAndStaysOff) {
  // PARCS_LOG is read once per process, so read it in a fresh one.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ::setenv("PARCS_LOG", "bogus", 1);
  EXPECT_EXIT(std::exit(logLevel() == LogLevel::Off ? 0 : 1),
              ::testing::ExitedWithCode(0),
              "\\[parcs:log\\] ignoring malformed PARCS_LOG \"bogus\": bad "
              "token \"bogus\"");
  ::unsetenv("PARCS_LOG");
}

TEST(LogContextTest, ClockAndNodeSaveRestore) {
  LogClock Prev = setLogClock(LogClock{});
  // Installing returns the previous clock; restoring round-trips.
  LogClock Mine;
  Mine.NowNs = [](void *) -> long long { return 42; };
  LogClock BeforeMine = setLogClock(Mine);
  EXPECT_EQ(BeforeMine.NowNs, nullptr);
  LogClock Restored = setLogClock(BeforeMine);
  EXPECT_EQ(Restored.NowNs, Mine.NowNs);

  EXPECT_EQ(setLogNode(3), -1);
  {
    LogNodeScope Scope(5);
    EXPECT_EQ(setLogNode(5), 5); // Peek: set returns previous.
  }
  EXPECT_EQ(setLogNode(-1), 3); // Scope restored the outer node.
  setLogClock(Prev);
}

//===----------------------------------------------------------------------===//
// Trace recorder: determinism and exported-JSON shape.
//===----------------------------------------------------------------------===//

class EchoServer : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    co_return Args;
  }
};

/// A small two-node RPC workload; every layer it crosses (kernel, network,
/// remoting) is instrumented, so with tracing on it produces spans on both
/// node pids plus counter samples.
void runTracedWorkload() {
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  remoting::RpcEndpoint Client(
      Machines.node(0), Net,
      remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117), 1050);
  remoting::RpcEndpoint Server(
      Machines.node(1), Net,
      remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117), 1050);
  Server.publish("echo", std::make_shared<EchoServer>());

  struct Driver {
    static sim::Task<void> run(remoting::RpcEndpoint &Ep) {
      int WorkerTid = trace::track(0, "driver");
      for (int I = 0; I < 6; ++I) {
        int64_t Start = Ep.node().sim().now().nanosecondsCount();
        Bytes Args = serial::encodeValues(std::string(size_t(16 + I), 'q'));
        ErrorOr<Bytes> Reply = co_await Ep.call(1, 1050, "echo", "ping", Args);
        EXPECT_TRUE(Reply);
        trace::complete(0, WorkerTid, "driver.round", Start,
                        Ep.node().sim().now().nanosecondsCount() - Start);
      }
    }
  };
  Machines.sim().spawn(Driver::run(Client));
  Machines.sim().run();
}

/// RAII guard: every trace test leaves the global recorder exactly as it
/// found it (disabled + empty) so test order cannot matter.
struct TraceSession {
  TraceSession() {
    trace::reset();
    trace::setEnabled(true);
  }
  ~TraceSession() {
    trace::setEnabled(false);
    trace::reset();
  }
};

TEST(TraceTest, DisabledRecordsNothing) {
  trace::setEnabled(false);
  trace::reset();
  trace::complete(0, 0, "ignored", 0, 10);
  trace::instant(1, 0, "ignored", 5);
  trace::counter(-1, "ignored", 5, 1);
  EXPECT_EQ(trace::track(0, "ignored"), 0);

  json::Value Root;
  ASSERT_TRUE(json::parse(trace::exportJson(), Root));
  const json::Value *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  EXPECT_TRUE(Events->Arr.empty());
}

TEST(TraceTest, TwoIdenticalRunsExportIdenticalJson) {
  TraceSession Session;
  runTracedWorkload();
  std::string First = trace::exportJson();

  trace::reset();
  runTracedWorkload();
  std::string Second = trace::exportJson();

  EXPECT_FALSE(First.empty());
  // Byte-identical: virtual timestamps only, no wall-clock anywhere.
  EXPECT_EQ(First, Second);
}

TEST(TraceTest, ExportIsWellFormedChromeJson) {
  TraceSession Session;
  runTracedWorkload();

  json::Value Root;
  ASSERT_TRUE(json::parse(trace::exportJson(), Root));
  const json::Value *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, json::Value::Kind::Array);
  ASSERT_FALSE(Events->Arr.empty());

  std::set<int> SpanPids;
  std::set<std::string> Phases;
  bool SawCounter = false, SawMetadata = false;
  for (const json::Value &Ev : Events->Arr) {
    ASSERT_EQ(Ev.K, json::Value::Kind::Object);
    const json::Value *Ph = Ev.field("ph");
    const json::Value *Pid = Ev.field("pid");
    const json::Value *Name = Ev.field("name");
    ASSERT_NE(Ph, nullptr);
    ASSERT_NE(Pid, nullptr);
    ASSERT_NE(Name, nullptr);
    EXPECT_GE(Pid->Num, 0.0);
    EXPECT_EQ(Pid->Num, double(int(Pid->Num))) << "pid must be integral";
    Phases.insert(Ph->Str);
    if (Ph->Str == "M") {
      SawMetadata = true;
      continue; // Metadata has args.name, not ts.
    }
    if (Ph->Str == "X" || Ph->Str == "i") {
      const json::Value *Tid = Ev.field("tid");
      ASSERT_NE(Tid, nullptr);
      EXPECT_GE(Tid->Num, 0.0);
    }
    ASSERT_NE(Ev.field("ts"), nullptr);
    if (Ph->Str == "X") {
      EXPECT_NE(Ev.field("dur"), nullptr);
      SpanPids.insert(int(Pid->Num));
    }
    if (Ph->Str == "C")
      SawCounter = true;
  }
  // Spans from both simulated nodes: client rounds on pid 1 (node 0),
  // rpc.serve on pid 2 (node 1).
  EXPECT_GE(SpanPids.size(), 2u) << "expected spans from >= 2 node pids";
  EXPECT_TRUE(SawCounter) << "expected counter samples (net.in_flight)";
  EXPECT_TRUE(SawMetadata) << "expected process/thread name metadata";
  EXPECT_TRUE(Phases.count("b") && Phases.count("e"))
      << "expected async begin/end pairs (rpc.call / net.transfer)";
}

TEST(TraceTest, NamedTracksGetDistinctTids) {
  TraceSession Session;
  int T1 = trace::track(0, "lane-one");
  int T2 = trace::track(0, "lane-two");
  EXPECT_GT(T1, 0);
  EXPECT_GT(T2, 0);
  EXPECT_NE(T1, T2);
  trace::complete(0, T1, "on-one", 100, 50);
  trace::complete(0, T2, "on-two", 100, 50);

  json::Value Root;
  ASSERT_TRUE(json::parse(trace::exportJson(), Root));
  const json::Value *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  std::set<int> Tids;
  int NamedTracks = 0;
  for (const json::Value &Ev : Events->Arr) {
    const json::Value *Ph = Ev.field("ph");
    ASSERT_NE(Ph, nullptr);
    if (Ph->Str == "X") {
      const json::Value *Tid = Ev.field("tid");
      ASSERT_NE(Tid, nullptr);
      Tids.insert(int(Tid->Num));
    }
    if (Ph->Str == "M" && Ev.field("name")->Str == "thread_name")
      ++NamedTracks;
  }
  EXPECT_EQ(Tids.size(), 2u);
  EXPECT_GE(NamedTracks, 2);
}

TEST(TraceTest, RingOverwritesOldestAndKeepsExportValid) {
  trace::reset();
  trace::setRingCapacity(8);
  trace::setEnabled(true);
  for (int I = 0; I < 40; ++I)
    trace::instant(0, 0, "tick", I * 10);
  std::string Json = trace::exportJson();
  trace::setEnabled(false);
  trace::reset();
  trace::setRingCapacity(size_t(1) << 16); // Restore the default.

  json::Value Root;
  ASSERT_TRUE(json::parse(Json, Root));
  const json::Value *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  int Instants = 0;
  double FirstTs = -1;
  for (const json::Value &Ev : Events->Arr)
    if (Ev.field("ph")->Str == "i") {
      if (Instants == 0)
        FirstTs = Ev.field("ts")->Num;
      ++Instants;
    }
  // Only the 8 newest survive, oldest-first: 32*10ns..39*10ns.
  EXPECT_EQ(Instants, 8);
  EXPECT_EQ(FirstTs, 0.320); // 320 ns as microseconds.
}

TEST(TraceTest, RingWrapMidSpanMarksTruncated) {
  trace::reset();
  trace::setRingCapacity(8);
  trace::setEnabled(true);
  // The begin is evicted by the wrap; its end survives.  The exporter must
  // mark the surviving half as truncated instead of letting a viewer show
  // a span of unknown extent.
  trace::asyncBegin(0, "span.lost_begin", 100, 1);
  for (int I = 0; I < 10; ++I)
    trace::instant(0, 0, "filler", 200 + I * 10);
  trace::asyncEnd(0, "span.lost_begin", 400, 1);
  // A fully-inside pair for contrast: must NOT be marked.
  trace::asyncBegin(0, "span.whole", 500, 2);
  trace::asyncEnd(0, "span.whole", 510, 2);
  std::string Json = trace::exportJson();
  trace::setEnabled(false);
  trace::reset();
  trace::setRingCapacity(size_t(1) << 16);

  json::Value Root;
  ASSERT_TRUE(json::parse(Json, Root));
  const json::Value *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  int TruncatedEnds = 0, CleanPairs = 0;
  for (const json::Value &Ev : Events->Arr) {
    const json::Value *Ph = Ev.field("ph");
    if (Ph->Str != "b" && Ph->Str != "e")
      continue;
    const json::Value *Args = Ev.field("args");
    bool Truncated = Args && Args->field("truncated") &&
                     Args->field("truncated")->B;
    if (Ev.field("name")->Str == "span.lost_begin") {
      EXPECT_EQ(Ph->Str, "e") << "the begin should have been evicted";
      EXPECT_TRUE(Truncated);
      ++TruncatedEnds;
    }
    if (Ev.field("name")->Str == "span.whole") {
      EXPECT_FALSE(Truncated);
      ++CleanPairs;
    }
  }
  EXPECT_EQ(TruncatedEnds, 1);
  EXPECT_EQ(CleanPairs, 2);
}

TEST(TraceTest, CrossNodeAsyncIdsDoNotMerge) {
  TraceSession Session;
  // Two nodes using the same local async id for unrelated spans: the
  // export must scope ids by pid so a viewer (or parcs-prof) never joins
  // them into one span.
  trace::asyncBegin(0, "work", 100, 42);
  trace::asyncBegin(1, "work", 110, 42);
  trace::asyncEnd(0, "work", 200, 42);
  trace::asyncEnd(1, "work", 300, 42);

  json::Value Root;
  ASSERT_TRUE(json::parse(trace::exportJson(), Root));
  const json::Value *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  std::set<std::string> Ids;
  std::map<std::string, std::set<double>> PidsById;
  for (const json::Value &Ev : Events->Arr) {
    const json::Value *Ph = Ev.field("ph");
    if (Ph->Str != "b" && Ph->Str != "e")
      continue;
    const json::Value *Id = Ev.field("id");
    ASSERT_NE(Id, nullptr);
    ASSERT_EQ(Id->K, json::Value::Kind::String);
    Ids.insert(Id->Str);
    PidsById[Id->Str].insert(Ev.field("pid")->Num);
  }
  EXPECT_EQ(Ids.size(), 2u) << "same local id on two nodes must stay distinct";
  for (const auto &[Id, Pids] : PidsById)
    EXPECT_EQ(Pids.size(), 1u) << "exported id " << Id << " spans pids";
}

TEST(TraceTest, CausalContextRidesInArgs) {
  TraceSession Session;
  uint64_t Parent = trace::mintCausalId();
  uint64_t Child = trace::mintCausalId();
  ASSERT_NE(Parent, 0u);
  ASSERT_NE(Child, Parent);
  trace::completeCtx(0, 0, "step", 100, 50, Child, Parent);
  trace::instantCtx(0, 0, "mark", 160, Child, 0);

  json::Value Root;
  ASSERT_TRUE(json::parse(trace::exportJson(), Root));
  const json::Value *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  int CtxEvents = 0;
  for (const json::Value &Ev : Events->Arr) {
    const json::Value *Args = Ev.field("args");
    if (!Args || !Args->field("ctx"))
      continue;
    ++CtxEvents;
    if (Ev.field("name")->Str == "step") {
      EXPECT_EQ(Args->field("ctx")->Num, double(Child));
      ASSERT_NE(Args->field("parent"), nullptr);
      EXPECT_EQ(Args->field("parent")->Num, double(Parent));
    }
    if (Ev.field("name")->Str == "mark") {
      EXPECT_EQ(Args->field("ctx")->Num, double(Child));
      EXPECT_EQ(Args->field("parent"), nullptr) << "parent 0 is omitted";
    }
  }
  EXPECT_EQ(CtxEvents, 2);
}

TEST(TraceTest, HandoffSlotIsOneShot) {
  TraceSession Session;
  trace::handoff(77);
  EXPECT_EQ(trace::takeHandoff(), 77u);
  EXPECT_EQ(trace::takeHandoff(), 0u) << "take must clear the slot";
}

TEST(TraceTest, FlightModeKeepsBoundedTailWithoutMintingIds) {
  trace::reset();
  trace::setFlightCapacity(8);
  trace::setFlightRecording(true);
  // Flight-only mode must not mint causal ids: the wire bytes of an RPC
  // run with the recorder shadowing must match an uninstrumented run.
  EXPECT_FALSE(trace::enabled());
  EXPECT_EQ(trace::mintCausalId(), 0u);
  for (int I = 0; I < 40; ++I)
    trace::instant(0, 0, "tick", I * 10);
  std::string Flight = trace::exportFlightJson();
  std::string Full = trace::exportJson();
  trace::setFlightRecording(false);
  trace::reset();
  trace::setFlightCapacity(512);

  json::Value Root;
  ASSERT_TRUE(json::parse(Flight, Root));
  const json::Value *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  int Instants = 0;
  for (const json::Value &Ev : Events->Arr)
    if (Ev.field("ph")->Str == "i")
      ++Instants;
  EXPECT_EQ(Instants, 8) << "flight ring must keep only the recent tail";

  // The big rings were off: the full-trace export saw nothing.
  json::Value FullRoot;
  ASSERT_TRUE(json::parse(Full, FullRoot));
  EXPECT_TRUE(FullRoot.field("traceEvents")->Arr.empty());
}

TEST(TraceTest, FlightTailMatchesFullTraceSuffix) {
  // With both modes on, the flight ring is exactly the tail of the full
  // trace -- the property the crash-dump acceptance check rests on.
  trace::reset();
  trace::setFlightCapacity(4);
  trace::setEnabled(true);
  trace::setFlightRecording(true);
  for (int I = 0; I < 20; ++I)
    trace::instant(0, 0, "tick", I * 10);
  std::string Flight = trace::exportFlightJson();
  std::string Full = trace::exportJson();
  trace::setFlightRecording(false);
  trace::setEnabled(false);
  trace::reset();
  trace::setFlightCapacity(512);

  json::Value FlightRoot, FullRoot;
  ASSERT_TRUE(json::parse(Flight, FlightRoot));
  ASSERT_TRUE(json::parse(Full, FullRoot));
  std::vector<double> FlightTs, FullTs;
  for (const json::Value &Ev : FlightRoot.field("traceEvents")->Arr)
    if (Ev.field("ph")->Str == "i")
      FlightTs.push_back(Ev.field("ts")->Num);
  for (const json::Value &Ev : FullRoot.field("traceEvents")->Arr)
    if (Ev.field("ph")->Str == "i")
      FullTs.push_back(Ev.field("ts")->Num);
  ASSERT_EQ(FlightTs.size(), 4u);
  ASSERT_EQ(FullTs.size(), 20u);
  EXPECT_TRUE(std::equal(FlightTs.begin(), FlightTs.end(),
                         FullTs.end() - 4))
      << "flight ring must be the suffix of the full trace";
}

} // namespace
