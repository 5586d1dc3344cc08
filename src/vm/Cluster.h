//===- vm/Cluster.h - Simulator + nodes bundle ------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns a simulator and a homogeneous set of nodes, reproducing the paper's
/// testbed shape (N dual-CPU nodes).  Destruction order matters: pending
/// coroutines (which reference nodes) are destroyed with the simulator
/// *before* the nodes go away.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_VM_CLUSTER_H
#define PARCS_VM_CLUSTER_H

#include "sim/Simulator.h"
#include "vm/Node.h"

#include <memory>
#include <vector>

namespace parcs::vm {

/// A homogeneous cluster of nodes sharing one simulator.
class Cluster {
public:
  Cluster(int NodeCount, VmKind Vm);
  ~Cluster();
  Cluster(const Cluster &) = delete;
  Cluster &operator=(const Cluster &) = delete;

  sim::Simulator &sim() { return *Sim; }
  Node &node(int Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Nodes.size() &&
           "node id out of range");
    return *Nodes[Id];
  }
  int nodeCount() const { return static_cast<int>(Nodes.size()); }

private:
  std::unique_ptr<sim::Simulator> Sim;
  std::vector<std::unique_ptr<Node>> Nodes;
};

} // namespace parcs::vm

#endif // PARCS_VM_CLUSTER_H
