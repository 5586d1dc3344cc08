//===- vm/Node.h - A cluster node with cores and a VM -----------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One cluster node: a set of CPU cores shared by simulated threads with
/// round-robin time slicing, executing under a VM cost model.  The paper's
/// testbed nodes are dual Athlon MP 1800+ machines, i.e. 2 cores.
///
/// A CPU charge takes no coroutine frame: it is a callback state machine
/// (Node::Charge) that lives in the charging coroutine's frame.  The cores
/// are a count of free ones plus a FIFO of charges waiting for one; each
/// slice is one callback event, and a freed core reaches a waiter in one
/// more.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_VM_NODE_H
#define PARCS_VM_NODE_H

#include "sim/Ring.h"
#include "sim/Simulator.h"
#include "sim/Task.h"
#include "vm/Calibration.h"
#include "vm/VmKind.h"

#include <coroutine>
#include <functional>
#include <utility>
#include <vector>

namespace parcs::vm {

/// A processing node: \c Cores CPUs shared by any number of simulated
/// threads.  compute() occupies one core for the requested CPU time, sliced
/// into scheduler quanta so concurrent threads share cores fairly (FIFO
/// round-robin), exactly reproducible.
class Node {
public:
  Node(sim::Simulator &Sim, int Id, VmKind Vm, int Cores = calib::CoresPerNode)
      : Sim(Sim), Id(Id), Vm(Vm), Model(vmCostModel(Vm)), Cores(Cores),
        FreeCores(Cores) {
    assert(Cores > 0 && "node needs at least one core");
  }
  Node(const Node &) = delete;
  Node &operator=(const Node &) = delete;

  sim::Simulator &sim() { return Sim; }
  int id() const { return Id; }
  VmKind vmKind() const { return Vm; }
  const VmCostModel &costModel() const { return Model; }
  int cores() const { return Cores; }

  class Charge;

  /// Occupies one core for \p CpuTime, time-sliced; other runnable threads
  /// interleave at quantum granularity.  If the node crashes while this
  /// thread holds or waits for a core, the thread parks forever (its frame
  /// is reclaimed at simulator teardown) -- a crashed node's tasks stop.
  Charge compute(sim::SimTime CpuTime);

  /// Like compute(), but instead of parking on a crash it yields false
  /// without consuming further time.  For infrastructure loops (RPC
  /// dispatch) that must survive a crash/restart cycle and decide for
  /// themselves what to do with the in-flight work.
  Charge computeChecked(sim::SimTime CpuTime);

  /// Charges \p ReferenceTime of \p Kind work scaled by this node's VM
  /// multiplier (reference = Sun JVM 1.4.2).
  Charge computeWork(WorkKind Kind, sim::SimTime ReferenceTime);

  /// Starts a new simulated thread on this node, paying the thread-creation
  /// cost before \p Body runs.
  void startThread(sim::Task<void> Body);

  /// Total CPU time consumed on this node so far.
  sim::SimTime busyTime() const { return Busy; }

  /// Number of threads currently inside compute() (running or queued for a
  /// core).
  int runnableThreads() const { return Runnable; }

  //===--------------------------------------------------------------------===//
  // Crash / restart (fault injection)
  //===--------------------------------------------------------------------===//

  /// True while the node is up (the default).
  bool alive() const { return Alive; }
  /// Bumped on every crash; lets work that straddled a crash+restart
  /// window detect it is stale (thread-pool zombie check).
  uint64_t epoch() const { return Epoch; }

  /// Crashes the node: threads inside compute() park at their next
  /// check point (quantum granularity), the NIC blackholes (enforced by
  /// the network's fault hook) and restart hooks will later rebuild the
  /// node's service loops.  Must not be called on a crashed node.
  void crash();

  /// Brings the node back up and runs the registered restart hooks in
  /// registration order (deterministic).  Must not be called on a live
  /// node.
  void restart();

  /// Registers \p Hook to run on every restart (e.g. a thread pool
  /// respawning workers lost to the crash).  Returns an id for
  /// removeRestartHook.
  uint64_t addRestartHook(std::function<void()> Hook);
  void removeRestartHook(uint64_t Id);

private:
  sim::Simulator &Sim;
  int Id;
  VmKind Vm;
  const VmCostModel &Model;
  int Cores;
  /// Cores no charge holds.  Non-zero only while no charge waits.
  int FreeCores;
  /// Charges waiting for a core, oldest first.
  sim::Ring<Charge *> Waiting;
  sim::SimTime Busy;
  int Runnable = 0;
  bool Alive = true;
  uint64_t Epoch = 0;
  uint64_t NextHookId = 1;
  /// Registration-ordered so restart is deterministic.
  std::vector<std::pair<uint64_t, std::function<void()>>> RestartHooks;

  /// Gives a core back: to the oldest waiting charge, through a callback
  /// at the current time, or to the free count when none waits.
  void releaseCore();
};

/// The awaitable of compute() and computeChecked(), and the whole of a
/// charge's state: it lives in the awaiting coroutine's frame, and every
/// step of the charge is a callback that captures only its address.
///  - A charge that finds a free core starts its first slice at once.  One
///    that finds none queues on the node's FIFO; a freed core reaches it
///    through a callback in the (time, seq) slot a semaphore waiter's
///    resume would take.
///  - Each slice is one callback, in the slot a delay() resume would take.
///    It bills the slice unless the node crashed, then either starts the
///    next slice -- after yielding the core to the oldest waiter and
///    queueing behind it, so equal threads round-robin -- or frees the
///    core and resumes the caller.
/// co_await yields false when the node crashed, which only a
/// computeChecked() caller sees: a compute() caller parks.
class [[nodiscard]] Node::Charge {
public:
  Charge(const Charge &) = delete;
  Charge &operator=(const Charge &) = delete;

  bool await_ready() noexcept {
    if (Remaining > sim::SimTime() && Owner.Alive)
      return false;
    // A zero charge completes at once; on a down node computeChecked
    // yields false at once and compute parks.
    Ok = Owner.Alive;
    return Remaining <= sim::SimTime() || Checked;
  }
  void await_suspend(std::coroutine_handle<> Awaiting);
  bool await_resume() const noexcept { return Ok; }

private:
  friend class Node;
  Charge(Node &Owner, sim::SimTime CpuTime, bool Checked)
      : Owner(Owner), Remaining(CpuTime), Checked(Checked) {}
  /// The slice this charge runs next: a quantum or what is left.
  sim::SimTime slice() const {
    return Remaining < calib::SchedulerQuantum ? Remaining
                                               : calib::SchedulerQuantum;
  }
  /// Schedules the end of the next slice on the core this charge holds.
  void startSlice();
  /// A slice's end: bills it unless the node crashed, then runs on.
  void finishSlice();
  /// A freed core's hand-over to this queued charge.
  void takeCore();
  /// Leaves the runnable set and resumes (or, on a crash under compute(),
  /// parks) the caller.  \p Up is false when the node crashed.
  void finish(bool Up);

  Node &Owner;
  /// CPU time not yet billed.
  sim::SimTime Remaining;
  bool Checked;
  bool Ok = true;
  std::coroutine_handle<> Caller;
};

inline Node::Charge Node::compute(sim::SimTime CpuTime) {
  return Charge(*this, CpuTime, /*Checked=*/false);
}

inline Node::Charge Node::computeChecked(sim::SimTime CpuTime) {
  return Charge(*this, CpuTime, /*Checked=*/true);
}

inline Node::Charge Node::computeWork(WorkKind Kind,
                                      sim::SimTime ReferenceTime) {
  double Mult = workMultiplier(Model, Kind);
  return compute(
      sim::SimTime::fromSecondsF(ReferenceTime.toSecondsF() * Mult));
}

} // namespace parcs::vm

#endif // PARCS_VM_NODE_H
