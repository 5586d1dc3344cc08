//===- bench/ablate_placement.cpp - A4: load-balancing policies -----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the OM's "current load distribution policy" (Section 3.2).
/// A 4-node cluster starts imbalanced (nodes 1..3 already host 3/2/1
/// leftover objects); 10 new parallel objects are then created from node
/// 0 under each policy.  The quantity SCOOPP's load management balances
/// is where objects (grains) live, so the table reports the final
/// hosted-object distribution: least-loaded converges to uniform by
/// querying peer OMs, round-robin preserves the initial skew, random is
/// noisy.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/ObjectManager.h"
#include "core/Proxy.h"
#include "core/World.h"

#include <cmath>

using namespace parcs;
using namespace parcs::bench;
using namespace parcs::scoopp;

namespace {

/// A do-nothing resident class: placement ballast.
class Resident : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view Method, const remoting::Bytes &) override {
    co_return Error(ErrorCode::UnknownMethod, std::string(Method));
  }
};

ParallelClassRegistry makeRegistry() {
  ParallelClassRegistry Registry;
  Registry.registerClass(
      {"Resident", [](ScooppRuntime &, vm::Node &)
                       -> std::shared_ptr<remoting::CallHandler> {
         return std::make_shared<Resident>();
       }});
  return Registry;
}

struct Distribution {
  std::vector<int> PerNode;
  double Spread = 0; ///< max - min.
};

Distribution runPolicy(PlacementPolicy Policy) {
  ScooppConfig Config;
  Config.Placement = Policy;
  Config.Seed = 7;
  ScooppWorld W(4, makeRegistry(), Config);
  // Initial imbalance: nodes 1..3 host 3/2/1 leftovers.
  for (int N = 1; N <= 3; ++N)
    for (int I = 0; I < 4 - N; ++I)
      (void)W.runtime().instantiateImpl(N, "Resident");

  W.runMain([](ScooppRuntime &Runtime) -> sim::Task<void> {
    for (int I = 0; I < 10; ++I) {
      ProxyBase P(Runtime, 0);
      Error E = co_await P.create("Resident");
      if (E)
        co_return;
    }
  });

  Distribution Out;
  int Min = 1 << 30, Max = 0;
  for (int N = 0; N < 4; ++N) {
    int Hosted = W.runtime().om(N).hostedObjects();
    Out.PerNode.push_back(Hosted);
    Min = std::min(Min, Hosted);
    Max = std::max(Max, Hosted);
  }
  Out.Spread = Max - Min;
  return Out;
}

void show(const char *Name, const Distribution &D) {
  row({Name, std::to_string(D.PerNode[0]), std::to_string(D.PerNode[1]),
       std::to_string(D.PerNode[2]), std::to_string(D.PerNode[3]),
       fmt(D.Spread, 0)},
      13);
}

/// Virtual microseconds per creation on a `Nodes`-wide cluster.  The cost
/// that ROADMAP A4 targets: LeastLoaded polls every peer OM (`getLoad`
/// RPCs, O(nodes) per creation), PowerOfTwoChoices probes at most two.
/// Simulated time makes the scaling exact and machine-independent.
double creationCostUs(PlacementPolicy Policy, int Nodes, int Creations,
                      uint64_t Seed = 7) {
  ScooppConfig Config;
  Config.Placement = Policy;
  Config.Seed = Seed;
  ScooppWorld W(Nodes, makeRegistry(), Config);
  int64_t ElapsedNs = 0;
  W.runMain([&](ScooppRuntime &Runtime) -> sim::Task<void> {
    int64_t StartNs =
        Runtime.cluster().node(0).sim().now().nanosecondsCount();
    for (int I = 0; I < Creations; ++I) {
      ProxyBase P(Runtime, 0);
      Error E = co_await P.create("Resident");
      if (E)
        co_return;
    }
    // Re-fetched after the suspensions rather than held across them
    // (suspension-ref).
    ElapsedNs =
        Runtime.cluster().node(0).sim().now().nanosecondsCount() - StartNs;
  });
  return double(ElapsedNs) / 1000.0 / double(Creations);
}

} // namespace

int main(int argc, char **argv) {
  std::string SweepOutPath = sweepOutPath(argc, argv);
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--sweep-out" && I + 1 < argc) {
      ++I; // value consumed by sweepOutPath
    } else {
      std::fprintf(stderr,
                   "unknown option '%s' (supported: --sweep-out <file>)\n",
                   argv[I]);
      return 2;
    }
  }

  banner("A4 (ablation)",
         "OM placement policy: final objects per node (start: 0/3/2/1)");
  row({"policy", "node0", "node1", "node2", "node3", "spread"}, 13);
  show("round-robin", runPolicy(PlacementPolicy::RoundRobin));
  show("random", runPolicy(PlacementPolicy::Random));
  show("least-loaded", runPolicy(PlacementPolicy::LeastLoaded));
  show("power-of-two", runPolicy(PlacementPolicy::PowerOfTwoChoices));
  std::printf("\nexpected shape: least-loaded converges to a uniform "
              "distribution (spread\n0-1) by querying peer OMs; "
              "power-of-two approaches it (spread 1-2)\nwith O(1) "
              "probes; round-robin preserves the initial skew\n");

  std::printf("\n==== A4: creation cost vs cluster size (virtual us per "
              "create, 10 creates) ====\n");
  row({"nodes", "least-loaded", "power-of-two", "ratio"}, 13);
  // Repeats vary the placement seed: virtual time makes each run exact, so
  // the seed is the only noise source and the sweep still captures the
  // policy's sensitivity to random choices.
  SweepWriter Sweep("ablate_placement");
  for (int Nodes : {4, 8, 16, 32}) {
    double Ll = 0, P2 = 0;
    for (uint64_t Seed : {7, 8, 9}) {
      double LlRep =
          creationCostUs(PlacementPolicy::LeastLoaded, Nodes, 10, Seed);
      double P2Rep =
          creationCostUs(PlacementPolicy::PowerOfTwoChoices, Nodes, 10, Seed);
      Sweep.point({{"nodes", double(Nodes)}},
                  {{"least_loaded_create_us", LlRep},
                   {"power_of_two_create_us", P2Rep}});
      if (Seed == 7) {
        Ll = LlRep;
        P2 = P2Rep;
      }
    }
    row({std::to_string(Nodes), fmt(Ll, 1), fmt(P2, 1), fmt(Ll / P2, 2)}, 13);
  }
  if (!Sweep.write(SweepOutPath))
    return 1;
  std::printf("\nexpected shape: least-loaded cost grows linearly with the "
              "node count (one\ngetLoad RPC per peer per creation); "
              "power-of-two stays flat at <= 2 probes\n");
  return 0;
}
