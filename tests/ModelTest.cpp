//===- tests/ModelTest.cpp - Performance-model layer tests ----------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The modeling layer end to end: PMNF golden fits on synthetic series
/// (the cross-validation must recover the generating law), byte-stable
/// reports, sweep/telemetry ingestion round-trips, extrapolation inside
/// the confidence band and per-leg composition.  Everything here is
/// synthetic or simulated-time data, so the suite is deterministic.
///
//===----------------------------------------------------------------------===//

#include "model/Compose.h"
#include "model/Ingest.h"
#include "model/Legs.h"

#include "net/Network.h"
#include "telemetry/Telemetry.h"
#include "telemetry/TopReport.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace parcs;
using namespace parcs::model;

namespace {

/// Samples y = Gen(x) at the given xs, \p Repeats times each.
std::vector<Sample> sampled(const std::vector<double> &Xs, int Repeats,
                            double (*Gen)(double)) {
  std::vector<Sample> Out;
  for (double X : Xs)
    for (int R = 0; R < Repeats; ++R)
      Out.push_back({X, Gen(X)});
  return Out;
}

const std::vector<double> StdXs = {2, 4, 8, 16, 32};

/// Deterministic LCG in [-1, 1] for noise (no std::random: the noise must
/// be identical on every platform and run).
struct Lcg {
  uint64_t State = 0x243f6a8885a308d3ull;
  double next() {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return double(int64_t(State >> 11)) / double(int64_t(1ull << 52)) - 1.0;
  }
};

//===----------------------------------------------------------------------===//
// PMNF fitting
//===----------------------------------------------------------------------===//

TEST(PmnfTest, FitsLinearExactly) {
  auto Fit = fitPmnf(sampled(StdXs, 3, [](double X) { return 5 + 3 * X; }),
                     "n", "lat");
  ASSERT_TRUE(bool(Fit)) << Fit.error().str();
  EXPECT_DOUBLE_EQ(Fit->Exp, 1);
  EXPECT_EQ(Fit->Log, 0);
  EXPECT_NEAR(Fit->C0, 5, 1e-6);
  EXPECT_NEAR(Fit->C1, 3, 1e-6);
  EXPECT_EQ(Fit->functionStr(), "5 + 3 * n");
  EXPECT_NEAR(Fit->R2, 1, 1e-9);
}

TEST(PmnfTest, FitsNLogN) {
  auto Fit = fitPmnf(
      sampled(StdXs, 3,
              [](double X) { return 10 + 2 * X * std::log2(X); }),
      "n", "cost");
  ASSERT_TRUE(bool(Fit)) << Fit.error().str();
  EXPECT_DOUBLE_EQ(Fit->Exp, 1);
  EXPECT_EQ(Fit->Log, 1);
  EXPECT_NEAR(Fit->C0, 10, 1e-6);
  EXPECT_NEAR(Fit->C1, 2, 1e-6);
}

TEST(PmnfTest, FitsQuadraticNotQuadraticLog) {
  // Exact n^2 data also fits n^2*log2(n) to numerical dust; the score
  // floor must hand the tie to the simpler hypothesis.
  auto Fit = fitPmnf(
      sampled(StdXs, 3, [](double X) { return 2 * X * X + 7; }), "n", "work");
  ASSERT_TRUE(bool(Fit)) << Fit.error().str();
  EXPECT_DOUBLE_EQ(Fit->Exp, 2);
  EXPECT_EQ(Fit->Log, 0);
  EXPECT_NEAR(Fit->C1, 2, 1e-6);
}

TEST(PmnfTest, FitsConstant) {
  auto Fit =
      fitPmnf(sampled(StdXs, 2, [](double) { return 42.0; }), "n", "flat");
  ASSERT_TRUE(bool(Fit)) << Fit.error().str();
  EXPECT_DOUBLE_EQ(Fit->C1, 0);
  EXPECT_NEAR(Fit->C0, 42, 1e-9);
  EXPECT_EQ(Fit->functionStr(), "42");
}

TEST(PmnfTest, CrossValidationSurvivesNoise) {
  // +/-2% multiplicative noise must not change the chosen hypothesis,
  // and the LOO residuals must widen the band enough to cover every
  // observation.
  Lcg Noise;
  std::vector<Sample> Samples;
  for (double X : StdXs)
    for (int R = 0; R < 4; ++R) {
      double Y = (5 + 3 * X) * (1 + 0.02 * Noise.next());
      Samples.push_back({X, Y});
    }
  auto Fit = fitPmnf(Samples, "n", "lat");
  ASSERT_TRUE(bool(Fit)) << Fit.error().str();
  EXPECT_DOUBLE_EQ(Fit->Exp, 1);
  EXPECT_EQ(Fit->Log, 0);
  EXPECT_GT(Fit->CvRmse, 0);
  EXPECT_GT(Fit->MaxRelErr, 0);
  for (const Sample &S : Samples)
    EXPECT_LE(std::abs(S.Y - Fit->predict(S.X)), Fit->bandHalfWidth(S.X))
        << "observation at x=" << S.X << " outside the confidence band";
}

TEST(PmnfTest, PredictsHeldOutConfigurationWithinBand) {
  // Fit on 2..16, extrapolate to the held-out 32: the acceptance
  // criterion of the modeling layer.
  Lcg Noise;
  std::vector<Sample> Train;
  for (double X : {2.0, 4.0, 8.0, 16.0})
    for (int R = 0; R < 4; ++R)
      Train.push_back({X, (40 + 7 * X) * (1 + 0.01 * Noise.next())});
  auto Fit = fitPmnf(Train, "nodes", "lat");
  ASSERT_TRUE(bool(Fit)) << Fit.error().str();
  double HeldOut = 40 + 7 * 32;
  EXPECT_LE(std::abs(HeldOut - Fit->predict(32)), Fit->bandHalfWidth(32))
      << "predicted " << Fit->predict(32) << " +/- " << Fit->bandHalfWidth(32)
      << " vs actual " << HeldOut;
}

TEST(PmnfTest, RejectsDegenerateSeries) {
  EXPECT_FALSE(bool(fitPmnf({{1, 1}, {2, 2}, {3, 3}}, "n", "m")))
      << "three samples must not be fittable";
  EXPECT_FALSE(bool(
      fitPmnf({{1, 1}, {1, 2}, {2, 2}, {2, 3}}, "n", "m")))
      << "two distinct xs must not be fittable";
  EXPECT_FALSE(bool(
      fitPmnf({{0, 1}, {1, 2}, {2, 2}, {3, 3}}, "n", "m")))
      << "x = 0 must be rejected (log2 undefined)";
}

TEST(PmnfTest, RepeatedFitsAreByteIdentical) {
  Lcg Noise;
  std::vector<Sample> Samples;
  for (double X : StdXs)
    for (int R = 0; R < 3; ++R)
      Samples.push_back({X, 3 * X * X + 100 * Noise.next()});
  auto A = fitPmnf(Samples, "n", "m");
  auto B = fitPmnf(Samples, "n", "m");
  ASSERT_TRUE(bool(A) && bool(B));
  EXPECT_EQ(A->functionStr(), B->functionStr());
  ModelSet SetA, SetB;
  SetA.Param = SetB.Param = "n";
  SetA.Models.emplace("m", *A);
  SetB.Models.emplace("m", *B);
  EXPECT_EQ(textReport(SetA), textReport(SetB));
  EXPECT_EQ(modelJson(SetA), modelJson(SetB));
}

//===----------------------------------------------------------------------===//
// DataSet + ingestion
//===----------------------------------------------------------------------===//

DataSet syntheticSweep() {
  DataSet Data;
  Data.Bench = "synthetic";
  Data.Machine = "test";
  for (double N : StdXs)
    for (int R = 0; R < 3; ++R) {
      DataPoint P;
      P.Params["nodes"] = N;
      P.Metrics["lat"] = 5 + 3 * N;
      P.Metrics["thr"] = 100 * N;
      Data.Points.push_back(std::move(P));
    }
  return Data;
}

TEST(DataSetTest, SeriesIsSortedAndSkipsIncompletePoints) {
  DataSet Data;
  for (double N : {8.0, 2.0, 4.0}) {
    DataPoint P;
    P.Params["n"] = N;
    P.Metrics["m"] = N * 10;
    Data.Points.push_back(std::move(P));
  }
  Data.Points.push_back({}); // no params, no metrics: skipped
  std::vector<Sample> S = series(Data, "n", "m");
  ASSERT_EQ(S.size(), 3u);
  EXPECT_DOUBLE_EQ(S[0].X, 2);
  EXPECT_DOUBLE_EQ(S[1].X, 4);
  EXPECT_DOUBLE_EQ(S[2].X, 8);
  EXPECT_EQ(varyingParams(Data), std::vector<std::string>{"n"});
  EXPECT_EQ(metricNames(Data), std::vector<std::string>{"m"});
}

TEST(IngestTest, SweepJsonRoundTripsByteIdentically) {
  DataSet Data = syntheticSweep();
  std::string Json = writeSweepJson(Data);
  auto Parsed = parseSweepJson(Json);
  ASSERT_TRUE(bool(Parsed)) << Parsed.error().str();
  EXPECT_EQ(Parsed->Bench, "synthetic");
  EXPECT_EQ(Parsed->Machine, "test");
  ASSERT_EQ(Parsed->Points.size(), Data.Points.size());
  EXPECT_EQ(writeSweepJson(*Parsed), Json);
}

TEST(IngestTest, RejectsMalformedSweeps) {
  EXPECT_FALSE(bool(parseSweepJson("not json at all")));
  EXPECT_FALSE(bool(parseSweepJson("{\"bench\": \"x\"}")))
      << "no points array";
  EXPECT_FALSE(bool(parseSweepJson(
      "{\"points\": [{\"params\": {\"n\": \"four\"}, \"metrics\": {}}]}")))
      << "non-numeric param";
  EXPECT_FALSE(bool(parseSweepJson("{\"points\": [{\"params\": {}}]}")))
      << "point without metrics";
}

TEST(IngestTest, TelemetryExportBecomesOneDataPoint) {
  vm::Cluster Machines(4, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 4);
  telemetry::TelemetrySpec Spec;
  Spec.WindowNs = 4000;
  telemetry::Plane Plane(Net, Spec);
  struct Driver {
    static sim::Task<void> ticks(net::Network &Net, int Node) {
      for (int T = 0; T < 8; ++T) {
        co_await Net.sim().delay(sim::SimTime::microseconds(1));
        int64_t Now = Net.sim().now().nanosecondsCount();
        telemetry::count(Node, "tick.count", Now);
        telemetry::record(Node, "tick.latency", Now, 1000 + T * 10);
      }
    }
  };
  for (int N = 0; N < 4; ++N)
    Net.sim().spawn(Driver::ticks(Net, N));
  Net.sim().run();

  auto Data = pointsFromTelemetryExport(Plane.exportJson());
  ASSERT_TRUE(bool(Data)) << Data.error().str();
  ASSERT_EQ(Data->Points.size(), 1u);
  const DataPoint &P = Data->Points[0];
  EXPECT_DOUBLE_EQ(P.Params.at("nodes"), 4);
  EXPECT_DOUBLE_EQ(P.Metrics.at("tick.count.n"), 32);
  EXPECT_DOUBLE_EQ(P.Metrics.at("tick.latency.n"), 32);
  EXPECT_GT(P.Metrics.at("tick.latency.p50"), 0);
  EXPECT_GT(P.Metrics.at("tick.count.rate_per_s"), 0);
}

//===----------------------------------------------------------------------===//
// Telemetry model= hook
//===----------------------------------------------------------------------===//

TEST(TelemetryModelHookTest, SpecParsesModelOption) {
  telemetry::TelemetrySpec S;
  ASSERT_TRUE(
      telemetry::parseTelemetrySpec("tele.json,model=sweep.json", S));
  EXPECT_EQ(S.ModelPath, "sweep.json");
  std::string Bad;
  EXPECT_FALSE(telemetry::parseTelemetrySpec("tele.json,model=", S, &Bad));
  EXPECT_EQ(Bad, "model=");
}

TEST(TelemetryModelHookTest, ModelPointsAreExactAndByteStable) {
  auto Run = [] {
    vm::Cluster Machines(2, vm::VmKind::MonoVm117);
    net::Network Net(Machines.sim(), 2);
    telemetry::TelemetrySpec Spec;
    Spec.WindowNs = 2000;
    telemetry::Plane Plane(Net, Spec);
    struct Driver {
      static sim::Task<void> ticks(net::Network &Net, int Node) {
        for (int T = 0; T < 10; ++T) {
          co_await Net.sim().delay(sim::SimTime::microseconds(1));
          telemetry::record(Node, "lat", Net.sim().now().nanosecondsCount(),
                            100 * (T + 1));
        }
      }
    };
    for (int N = 0; N < 2; ++N)
      Net.sim().spawn(Driver::ticks(Net, N));
    Net.sim().run();
    return Plane.modelPointsJson();
  };
  std::string A = Run();
  EXPECT_EQ(A, Run()) << "model hook output must be byte-stable";

  auto Data = parseSweepJson(A);
  ASSERT_TRUE(bool(Data)) << Data.error().str();
  ASSERT_EQ(Data->Points.size(), 1u);
  const DataPoint &P = Data->Points[0];
  EXPECT_DOUBLE_EQ(P.Params.at("nodes"), 2);
  EXPECT_DOUBLE_EQ(P.Metrics.at("lat.n"), 20);
  // Whole-run exact percentiles from the merged buckets -- the samples are
  // 100..1000 (x2 nodes), so the p50 sits near 500ns and the mean is
  // exactly 550ns.
  EXPECT_DOUBLE_EQ(P.Metrics.at("lat.mean"), 550);
  EXPECT_GT(P.Metrics.at("lat.p50"), 0);
  EXPECT_GE(P.Metrics.at("lat.p99"), P.Metrics.at("lat.p50"));
}

//===----------------------------------------------------------------------===//
// Reports + model JSON
//===----------------------------------------------------------------------===//

TEST(ReportTest, FitAllInfersTheSingleVaryingParam) {
  auto Set = fitAll(syntheticSweep(), "");
  ASSERT_TRUE(bool(Set)) << Set.error().str();
  EXPECT_EQ(Set->Param, "nodes");
  ASSERT_EQ(Set->Models.size(), 2u);
  EXPECT_EQ(Set->Models.at("lat").functionStr(), "5 + 3 * nodes");
}

TEST(ReportTest, ModelJsonRoundTrips) {
  auto Set = fitAll(syntheticSweep(), "nodes");
  ASSERT_TRUE(bool(Set));
  std::string Json = modelJson(*Set);
  auto Back = parseModelJson(Json);
  ASSERT_TRUE(bool(Back)) << Back.error().str();
  EXPECT_EQ(Back->Param, "nodes");
  EXPECT_EQ(modelJson(*Back), Json) << "parse/render must round-trip";
}

//===----------------------------------------------------------------------===//
// Composition along profiler legs
//===----------------------------------------------------------------------===//

TEST(ComposeTest, LegsSumToTheDirectFit) {
  DataSet Data;
  for (double N : StdXs)
    for (int R = 0; R < 2; ++R) {
      DataPoint P;
      P.Params["nodes"] = N;
      P.Metrics["leg.compute"] = 200 * N;
      P.Metrics["leg.wire"] = 300 * N;
      P.Metrics["leg.total"] = 500 * N;
      Data.Points.push_back(std::move(P));
    }
  auto C = compose(Data, "nodes", "");
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_EQ(C->EndMetric, "leg.total");
  ASSERT_EQ(C->Legs.size(), 2u);
  EXPECT_LT(C->CompositionErr, 1e-6);
  EXPECT_NEAR(C->predict(64), C->Direct.predict(64), 1e-3);
  std::string Report = compositionReport(*C, Data);
  EXPECT_NE(Report.find("leg.compute"), std::string::npos);
  EXPECT_NE(Report.find("composition error"), std::string::npos);
  EXPECT_EQ(Report, compositionReport(*C, Data));
}

TEST(ComposeTest, NoLegsIsAnError) {
  EXPECT_FALSE(bool(compose(syntheticSweep(), "nodes", "lat")));
}

TEST(LegsTest, AnalysisBecomesLegMetrics) {
  prof::Analysis A;
  A.CriticalNs = 1000;
  A.ByClass = {{prof::SegClass::Compute, 600},
               {prof::SegClass::Serialize, 0},
               {prof::SegClass::Wire, 400}};
  NumberMap Params;
  Params["nodes"] = 8;
  DataPoint P = pointFromProfAnalysis(A, Params);
  EXPECT_DOUBLE_EQ(P.Params.at("nodes"), 8);
  EXPECT_DOUBLE_EQ(P.Metrics.at("leg.compute"), 600);
  EXPECT_DOUBLE_EQ(P.Metrics.at("leg.serialize"), 0);
  EXPECT_DOUBLE_EQ(P.Metrics.at("leg.wire"), 400);
  EXPECT_DOUBLE_EQ(P.Metrics.at("leg.total"), 1000);
}

//===----------------------------------------------------------------------===//
// parcs_top empty-percentile rendering
//===----------------------------------------------------------------------===//

TEST(TopReportTest, RendersEmptyWindowPercentilesAsDash) {
  // A histogram window with no samples exports the EmptyPercentile
  // sentinel (-1); the view must show "-", never a negative latency.
  std::string Export =
      "{\"window_ns\": 1000, \"nodes\": 1, \"snapshots\": 1, "
      "\"late_windows\": 0, \"corrupt_snapshots\": 0, \"series\": {"
      "\"lat\": {\"kind\": \"histogram\", \"windows\": ["
      "{\"w\": 0, \"start_ns\": 0, \"n\": 0, \"mean\": 0, \"min\": 0, "
      "\"max\": 0, \"p50\": -1, \"p90\": -1, \"p99\": -1, \"p999\": -1},"
      "{\"w\": 1, \"start_ns\": 1000, \"n\": 4, \"mean\": 2000, "
      "\"min\": 1000, \"max\": 3000, \"p50\": 2000, \"p90\": 3000, "
      "\"p99\": 3000, \"p999\": 3000}]}}, \"slos\": []}";
  std::string Out;
  ASSERT_TRUE(telemetry::renderTopReport(Export, Out)) << Out;
  EXPECT_NE(Out.find("         -          -          -          -"),
            std::string::npos)
      << "empty window must render dashes:\n"
      << Out;
  EXPECT_NE(Out.find("2.0"), std::string::npos)
      << "populated window must keep numeric cells:\n"
      << Out;
  EXPECT_EQ(Out.find("-1.0"), std::string::npos)
      << "the sentinel must never leak as a negative latency:\n"
      << Out;
}

} // namespace
