//===- examples/parcgen_demo.cpp - the preprocessor flow ------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's preprocessor flow, end to end: examples/pci/matrix.pci
/// declares a parallel class in the .pci dialect; the build invokes the
/// `parcgen` tool on it (see examples/CMakeLists.txt), producing
/// MatrixGen.h with the proxy (PO), the skeleton (IO base) and the
/// registration helper; this file implements the skeleton and drives a
/// small row-sum farm through the generated proxy.
///
//===----------------------------------------------------------------------===//

#include "MatrixGen.h"
#include "core/ObjectManager.h"
#include "net/Network.h"
#include "vm/Cluster.h"

#include <cmath>
#include <cstdio>

using namespace parcs;
using examples::matrix::Row;
using examples::matrix::RowWorkerProxy;
using examples::matrix::RowWorkerSkeleton;

namespace {

/// Implementation of the generated skeleton: accumulates the squared
/// norm of every row (chain) it receives.  The parameter is a *copy* of
/// the caller's passive Row graph, decoded for the duration of the call.
class RowWorkerImpl : public RowWorkerSkeleton {
public:
  explicit RowWorkerImpl(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<Unit>> accumulate(Row *First) override {
    for (const Row *Cursor = First; Cursor; Cursor = Cursor->next) {
      double RowSum = 0;
      for (double V : Cursor->values)
        RowSum += V * V;
      // Charge FP work proportional to the row length.
      co_await Host.computeWork(
          vm::WorkKind::FloatingPoint,
          sim::SimTime::microseconds(
              static_cast<int64_t>(Cursor->values.size())));
      SumOfSquares += RowSum;
      ++RowCount;
    }
    co_return Unit();
  }

  sim::Task<ErrorOr<double>> norm() override { co_return SumOfSquares; }
  sim::Task<ErrorOr<int32_t>> rows() override { co_return RowCount; }

private:
  vm::Node &Host;
  double SumOfSquares = 0;
  int32_t RowCount = 0;
};

sim::Task<void> farm(scoopp::ScooppRuntime &Runtime, int Workers, int Rows,
                     int Cols) {
  std::vector<std::unique_ptr<RowWorkerProxy>> Proxies;
  for (int W = 0; W < Workers; ++W) {
    auto Proxy = std::make_unique<RowWorkerProxy>(Runtime, 0);
    Error E = co_await Proxy->create();
    if (E) {
      std::printf("create failed: %s\n", E.str().c_str());
      co_return;
    }
    std::printf("worker %d placed on node %d\n", W, Proxy->ref().Node);
    Proxies.push_back(std::move(Proxy));
  }

  // Deal rows round-robin through the generated async method: each call
  // ships a copy of a two-row passive chain.
  double Expected = 0;
  serial::ObjectPool Pool;
  for (int R = 0; R < Rows; R += 2) {
    Row *First = Pool.create<Row>();
    Row *Second = Pool.create<Row>();
    First->next = Second;
    for (Row *Link : {First, Second}) {
      Link->values.resize(static_cast<size_t>(Cols));
      for (int C = 0; C < Cols; ++C) {
        double V = 0.25 * (R + 1) + 0.5 * C;
        Link->values[static_cast<size_t>(C)] = V;
        Expected += V * V;
      }
    }
    co_await Proxies[static_cast<size_t>((R / 2) % Workers)]->accumulate(
        First);
  }

  // Generated sync methods flush the aggregation buffers and collect.
  double Total = 0;
  int TotalRows = 0;
  for (auto &Proxy : Proxies) {
    auto Partial = co_await Proxy->norm();
    auto Count = co_await Proxy->rows();
    if (Partial && Count) {
      Total += *Partial;
      TotalRows += *Count;
    }
  }
  std::printf("Frobenius norm^2 = %.3f (expected %.3f, %s), rows = %d\n",
              Total, Expected,
              std::fabs(Total - Expected) < 1e-6 ? "ok" : "MISMATCH",
              TotalRows);
  std::printf("virtual time: %s\n", Runtime.sim().now().str().c_str());
}

} // namespace

int main() {
  examples::matrix::registerRowPassive(serial::TypeRegistry::global());
  vm::Cluster Machines(3, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), Machines.nodeCount());
  scoopp::ParallelClassRegistry Registry;
  examples::matrix::registerRowWorkerClass<RowWorkerImpl>(Registry);
  scoopp::ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 4;
  scoopp::ScooppRuntime Runtime(Machines, Net, std::move(Registry), Config);

  Machines.sim().spawn(farm(Runtime, /*Workers=*/3, /*Rows=*/24,
                            /*Cols=*/64));
  Machines.sim().run();
  return 0;
}
