//===- sim/Simulator.h - Discrete-event simulation kernel -------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic discrete-event simulator.  All concurrency in the
/// reproduction (cluster nodes, VM threads, network transfers) runs as
/// coroutines scheduled on this single-threaded virtual-time event loop, so
/// every run is reproducible bit-for-bit on any machine.
///
/// Events with equal timestamps fire in sequence-number order, which makes
/// wake-up ordering of semaphores, channels and futures deterministic as
/// well.  The number is claimed at schedule time, or, for an event
/// scheduled later under a number claimed in advance (reserveSeq /
/// scheduleAtReserved), at reservation time: such an event pops exactly
/// where it would have had it been scheduled when the number was claimed.
///
/// The kernel is built for throughput -- every paper figure is millions of
/// events:
///  - event callbacks are InlineFunction with a 64-byte inline buffer, so
///    the common captures (a handle, a promise, a small message) never heap
///    allocate;
///  - coroutine resumes (the single hottest event kind: channel wake-ups,
///    delays, semaphore grants) store the raw std::coroutine_handle<> in
///    the event node, with no closure at all;
///  - the pending-event set is the two-level calendar queue in SimKernel
///    (FIFO fast lane + time buckets + overflow heap, free-list recycled
///    nodes: zero allocations per event in steady state).
///
/// The calendar queue, clock and sequence counter live in sim/SimKernel.h;
/// this class binds the kernel to the coroutine runtime (spawn/reap, delay
/// awaitable, log clock) and is the front door the rest of the library
/// uses.  See docs/perf.md for the design notes and bench/sim_kernel for
/// the numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_SIMULATOR_H
#define PARCS_SIM_SIMULATOR_H

#include "sim/SimKernel.h"
#include "sim/SimTime.h"
#include "sim/Task.h"
#include "support/Logging.h"
#include "support/Statistics.h"

#include <coroutine>
#include <cstdint>
#include <type_traits>

namespace parcs::sim {

/// Single-threaded virtual-time event loop.
class Simulator {
public:
  Simulator();
  Simulator(const Simulator &) = delete;
  Simulator &operator=(const Simulator &) = delete;
  ~Simulator();

  /// Current virtual time.
  SimTime now() const { return SimTime::nanoseconds(Kernel.nowNs()); }

  /// Number of events executed so far.
  uint64_t eventsProcessed() const { return EventCount; }

  // PARCS_HOT_BEGIN(schedule-inline): the inline half of the kernel; the
  // callable must be emplaced straight into a recycled node.

  /// Schedules \p Fn to run \p Delay after the current time.
  template <typename F> void schedule(SimTime Delay, F &&Fn) {
    scheduleAt(now() + Delay, std::forward<F>(Fn));
  }

  /// Schedules \p Fn at absolute time \p At (must not be in the past).
  /// The callable is constructed directly into a recycled event node --
  /// no temporary wrapper, no relocation.
  template <typename F>
    requires std::is_invocable_r_v<void, std::decay_t<F> &>
  void scheduleAt(SimTime At, F &&Fn) {
    assert(At.nanosecondsCount() >= Kernel.nowNs() &&
           "scheduling into the past");
    if constexpr (!EventCallback::fitsInline<std::decay_t<F>>())
      Kernel.noteSboMiss();
    SimKernel::EventNode *Node =
        Kernel.allocNode(At.nanosecondsCount(), Kernel.takeSeq());
    Node->Fn.emplace(std::forward<F>(Fn));
    Kernel.insert(Node);
  }

  /// Claims the sequence number of an event to be scheduled later with
  /// scheduleAtReserved.  A number that is never used leaves a gap, which
  /// does not change the relative order of any other events.
  uint64_t reserveSeq() { return Kernel.takeSeq(); }

  /// Schedules \p Fn at absolute time \p At under the sequence number
  /// \p Seq from reserveSeq.  \p At must not be in the past, and no event
  /// with a later (time, sequence) key than (\p At, \p Seq) may have run
  /// since the reservation; the event then pops in the slot it would have
  /// taken had it been scheduled at reservation time.
  template <typename F>
    requires std::is_invocable_r_v<void, std::decay_t<F> &>
  void scheduleAtReserved(SimTime At, uint64_t Seq, F &&Fn) {
    if constexpr (!EventCallback::fitsInline<std::decay_t<F>>())
      Kernel.noteSboMiss();
    SimKernel::EventNode *Node = Kernel.allocNode(At.nanosecondsCount(), Seq);
    Node->Fn.emplace(std::forward<F>(Fn));
    Kernel.insertOrdered(Node);
  }

  /// Schedules \p Handle to be resumed \p Delay from now.  Stores the raw
  /// handle -- no closure, no allocation.
  void scheduleResume(SimTime Delay, std::coroutine_handle<> Handle) {
    scheduleResumeAt(now() + Delay, Handle);
  }

  /// Absolute-time variant of scheduleResume.
  void scheduleResumeAt(SimTime At, std::coroutine_handle<> Handle);

  // PARCS_HOT_END

  /// Detaches \p T and starts it from the event loop at the current time.
  /// The coroutine frame self-destroys on completion or, if still pending,
  /// is destroyed when the simulator is destroyed (or at reapDetached()).
  void spawn(Task<void> T);

  /// Destroys every detached coroutine frame that has not completed, in
  /// spawn order.  Only callable between run()s (never from inside the
  /// event loop).  Teardown hook for owners of state those frames
  /// reference: a crashed node parks its frames forever, so they outlive
  /// run() and would otherwise be destroyed only by ~Simulator -- after
  /// shorter-lived layers (e.g. the SCOOPP runtime) are already gone.
  void reapDetached();

  /// Awaitable that suspends the caller for \p Duration of virtual time.
  auto delay(SimTime Duration) {
    struct Awaiter {
      Simulator &Sim;
      SimTime Duration;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> Handle) {
        Sim.scheduleResume(Duration, Handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, Duration};
  }

  /// Runs one event.  Returns false when the queue is empty.
  bool step();

  /// Runs until the event queue drains or \p MaxEvents have executed.
  /// Returns the number of events executed.
  uint64_t run(uint64_t MaxEvents = UINT64_MAX);

  /// Runs events with timestamp <= \p Until (and advances the clock to
  /// \p Until even if the queue drains earlier).
  void runUntil(SimTime Until);

  /// Number of pending events.
  size_t pendingCount() const { return Kernel.pendingCount(); }

  /// Scheduler observability counters accumulated since construction.
  const SchedulerCounters &counters() const { return Kernel.counters(); }

  /// Counters as a printable name/value group (for benches and logs).
  CounterGroup counterSnapshot() const;

private:
  /// Executes one popped event (shared tail of step()).
  void execute(SimKernel::EventNode *Node);
  /// Cold path of step()'s periodic queue-depth sampling; out of line so
  /// the per-event cost stays one in-register test.
  void sampleQueueDepth(int64_t AtNs);

  SimKernel Kernel;
  uint64_t EventCount = 0;

  /// Log clock that was active before this simulator installed itself as
  /// the time source; restored on destruction (simulators nest in tests).
  LogClock PrevLogClock;

  /// Sentinel of the circular list of detached coroutine frames still
  /// alive, linked through their promises in spawn order.  A frame unlinks
  /// itself at final suspend; reapDetached() destroys the rest in spawn
  /// order, so teardown side effects -- child Task destructors, logging --
  /// are deterministic.
  detail::DetachedLink LiveDetached{&LiveDetached, &LiveDetached};
};

} // namespace parcs::sim

#endif // PARCS_SIM_SIMULATOR_H
