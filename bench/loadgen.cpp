//===- bench/loadgen.cpp - Overload sweep (p99 vs offered load) -----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sweeps the open-loop traffic generator (apps/loadgen) over offered
/// rates straddling the cluster's saturation point, once with admission
/// control off (the unprotected baseline) and once with a bounded
/// per-node budget.  The curve the sweep draws is the robustness claim of
/// the overload work: past saturation the unprotected p99 grows with the
/// run length (the queue is unbounded), while the protected p99 stays
/// within a small factor of its unsaturated value because the excess is
/// shed at admission instead of queued.
///
/// All measurements are *virtual-time* latencies of a deterministic
/// simulation -- reruns produce byte-identical numbers -- so the sweep is
/// also a regression pin (the loadgen_smoke CTest target): the binary exits
/// 1 unless the protected p99 at 2.0x stays within 3x of its 0.5x value,
/// every unprotected run completes everything it was offered, every
/// protected run accounts for every call it was offered, and the protected
/// 2.0x run sheds.  It takes no arguments.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "apps/loadgen/LoadGen.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace parcs;
using namespace parcs::apps::loadgen;
using namespace parcs::bench;

namespace {

struct SweepPoint {
  double Multiple; ///< Offered rate as a multiple of saturation.
  LoadGenResult Unprotected;
  LoadGenResult Protected_;
};

LoadGenConfig baseConfig() {
  LoadGenConfig Cfg;
  Cfg.Nodes = 4;
  Cfg.Workers = 8;
  // The served work should dominate the per-call fixed stack cost
  // (~119us per side) so the admission gate fronts most of the demand:
  // 2ms of compute puts ~90% of the server-side cost behind it.
  Cfg.WorkCost = sim::SimTime::milliseconds(2);
  Cfg.Duration = sim::SimTime::milliseconds(50);
  Cfg.Seed = 42;
  return Cfg;
}

/// Sized from the queueing-delay allowance, not pulled from air: one
/// queued call is ~WorkCost/2 of extra wait (two cores per node), the
/// acceptance bound is 3x the unsaturated p99 (~3 x 3ms), so roughly
/// (9ms - 3ms) / 1ms ~= 6 admitted calls per node.
constexpr size_t ProtectedBudget = 6;

/// Reports \p What on stderr unless \p Ok; returns \p Ok.
bool pin(bool Ok, const std::string &What) {
  if (!Ok)
    std::fprintf(stderr, "loadgen: %s\n", What.c_str());
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1) {
    std::fprintf(stderr, "unknown option '%s' (loadgen takes no arguments)\n",
                 Argv[1]);
    return 2;
  }

  LoadGenConfig Base = baseConfig();
  double SatRate = saturationRate(Base);
  std::printf("loadgen: %d nodes, %d workers, %.0fus/call -> saturation "
              "%.0f calls/s\n\n",
              Base.Nodes, Base.Workers, Base.WorkCost.toSecondsF() * 1e6,
              SatRate);

  std::vector<SweepPoint> Points;
  for (double M : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    SweepPoint P;
    P.Multiple = M;
    LoadGenConfig Cfg = Base;
    Cfg.OfferedRate = M * SatRate;
    Cfg.MaxPending = 0;
    P.Unprotected = runLoadGen(Cfg);
    Cfg.MaxPending = ProtectedBudget;
    P.Protected_ = runLoadGen(Cfg);
    Points.push_back(P);
  }

  row({"load", "mode", "offered", "done", "shed", "p50us", "p99us",
       "p999us"});
  for (const SweepPoint &P : Points) {
    row({fmt(P.Multiple, 1) + "x", "open", fmt(double(P.Unprotected.Offered), 0),
         fmt(double(P.Unprotected.Completed), 0),
         fmt(double(P.Unprotected.Rejected), 0), fmt(P.Unprotected.P50Us, 1),
         fmt(P.Unprotected.P99Us, 1), fmt(P.Unprotected.P999Us, 1)});
    row({fmt(P.Multiple, 1) + "x", "admit", fmt(double(P.Protected_.Offered), 0),
         fmt(double(P.Protected_.Completed), 0),
         fmt(double(P.Protected_.Rejected), 0), fmt(P.Protected_.P50Us, 1),
         fmt(P.Protected_.P99Us, 1), fmt(P.Protected_.P999Us, 1)});
  }

  // The acceptance ratio: protected p99 at 2.0x vs the protected p99 well
  // below saturation.
  const SweepPoint &Cold = Points.front(); // the 0.5x point
  const SweepPoint &Hot = Points[3];       // the 2.0x point
  double BaselineP99 = Cold.Protected_.P99Us;
  double Ratio = BaselineP99 > 0 ? Hot.Protected_.P99Us / BaselineP99 : 0;
  std::printf("\nprotected p99 at 2.0x = %.1fus, unsaturated = %.1fus "
              "-> ratio %.2f (target <= 3) %s\n",
              Hot.Protected_.P99Us, BaselineP99, Ratio,
              Ratio <= 3.0 ? "OK" : "OVER");
  std::printf("unprotected p99 at 2.0x = %.1fus (%.1fx of its 0.5x "
              "value %.1fus)\n",
              Hot.Unprotected.P99Us,
              Cold.Unprotected.P99Us > 0
                  ? Hot.Unprotected.P99Us / Cold.Unprotected.P99Us
                  : 0,
              Cold.Unprotected.P99Us);

  bool Ok = pin(BaselineP99 > 0 && Ratio <= 3.0,
                "protected p99 at 2.0x is " + fmt(Ratio, 2) +
                    "x its 0.5x value (pin: at most 3x)");
  Ok &= pin(Hot.Protected_.Rejected > 0 && Hot.Protected_.Completed > 0,
            "the protected 2.0x run must shed and still complete calls");
  for (const SweepPoint &P : Points) {
    std::string At = fmt(P.Multiple, 1) + "x ";
    const LoadGenResult &Open = P.Unprotected, &Admit = P.Protected_;
    uint64_t Accounted = Admit.Completed + Admit.Rejected + Admit.Failed;
    Ok &= pin(Open.Completed == Open.Offered,
              At + "open: completed " + std::to_string(Open.Completed) +
                  " of " + std::to_string(Open.Offered) + " offered");
    Ok &= pin(Accounted == Admit.Offered,
              At + "admit: accounted for " + std::to_string(Accounted) +
                  " of " + std::to_string(Admit.Offered) + " offered");
  }
  return Ok ? 0 : 1;
}
