//===- sim/Simulator.cpp --------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The coroutine-runtime half of the simulator: spawn/reap of detached
// frames, the log-clock install, and the step loop.  The pending-event set
// itself (FIFO lane and event heap) lives in sim/SimKernel.cpp.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>

using namespace parcs;
using namespace parcs::sim;

/// LogClock callback: virtual time of the simulator passed as context.
static long long simulatorNowNs(void *Ctx) {
  return static_cast<const Simulator *>(Ctx)->now().nanosecondsCount();
}

Simulator::Simulator() {
  // The newest simulator becomes the log time source; the previous one is
  // restored when this simulator is destroyed.
  PrevLogClock = setLogClock({simulatorNowNs, this});
}

void Simulator::reapDetached() {
  // Destroy coroutines that never finished (e.g. server dispatch loops, or
  // frames parked forever by a node crash) in spawn order.  The chain is
  // taken off the sentinel first, so a frame spawned by a destructor lands
  // on the fresh list.  Destroying a frame runs its locals' destructors but
  // never its final suspend, so it cannot unlink a frame further down.
  using PromiseT = Task<void>::promise_type;
  detail::DetachedLink *Link = LiveDetached.Next;
  LiveDetached.Prev = LiveDetached.Next = &LiveDetached;
  while (Link != &LiveDetached) {
    detail::DetachedLink *Next = Link->Next;
    // spawn() takes only Task<void>, so every linked promise is one.
    auto &Promise = static_cast<PromiseT &>(*Link);
    std::coroutine_handle<PromiseT>::from_promise(Promise).destroy();
    Link = Next;
  }
}

Simulator::~Simulator() {
  setLogClock(PrevLogClock);
  reapDetached();
  // Fold this run's scheduler counters into the end-of-run report.
  const SchedulerCounters &C = Kernel.counters();
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter("sim.events").add(EventCount);
  Reg.counter("sim.callback_events").add(C.CallbackEvents);
  Reg.counter("sim.resume_events").add(C.ResumeEvents);
  Reg.counter("sim.sbo_misses").add(C.SboMisses);
  Reg.counter("sim.nodes_allocated").add(C.NodesAllocated);
  Reg.gauge("sim.peak_queue_depth")
      .noteMax(static_cast<int64_t>(C.PeakQueueDepth));
}

// PARCS_HOT_BEGIN(step-dispatch): every event pays schedule/pop/execute
// once; a steady-state run must not allocate here.

void Simulator::scheduleResumeAt(SimTime At, std::coroutine_handle<> Handle) {
  assert(At.nanosecondsCount() >= Kernel.nowNs() && "scheduling into the past");
  assert(Handle && "scheduling a null coroutine handle");
  SimKernel::EventNode *Node =
      Kernel.allocNode(At.nanosecondsCount(), Kernel.takeSeq());
  Node->Handle = Handle;
  Kernel.insert(Node);
}

void Simulator::spawn(Task<void> T) {
  assert(T.valid() && "spawning an empty task");
  auto Handle = T.release();
  Handle.promise().linkBefore(LiveDetached);
  scheduleResumeAt(now(), Handle);
}

void Simulator::execute(SimKernel::EventNode *Node) {
  if (Node->Handle) {
    std::coroutine_handle<> Handle = Node->Handle;
    Node->Handle = nullptr;
    ++Kernel.counters().ResumeEvents;
    Kernel.recycle(Node);
    Handle.resume();
    return;
  }
  // Run the callback in place -- the node is already unlinked, so events it
  // schedules cannot touch it -- then destroy the callable and recycle.
  ++Kernel.counters().CallbackEvents;
  Node->Fn();
  Node->Fn.reset();
  Kernel.recycle(Node);
}

bool Simulator::step() {
  SimKernel::EventNode *Node = Kernel.popEarliest();
  if (!Node)
    return false;
  assert(Node->AtNs >= Kernel.nowNs() && "event queue went backwards");
  Kernel.setNowNs(Node->AtNs);
  ++EventCount;
  // The in-register modulus test is all the common path pays; the trace
  // flag is only consulted on the sampled iterations, out of line.
  if ((EventCount & 1023) == 0) [[unlikely]]
    sampleQueueDepth(Node->AtNs);
  execute(Node);
  return true;
}

// PARCS_HOT_END

/// Passive observation only (never schedules), so the event stream -- and
/// the determinism golden hash -- is identical with tracing on or off.
__attribute__((noinline)) void Simulator::sampleQueueDepth(int64_t AtNs) {
  trace::counter(-1, "sim.queue_depth", AtNs,
                 static_cast<int64_t>(Kernel.pendingCount()));
}

uint64_t Simulator::run(uint64_t MaxEvents) {
  uint64_t Executed = 0;
  while (Executed < MaxEvents && step())
    ++Executed;
  return Executed;
}

void Simulator::runUntil(SimTime Until) {
  assert(Until >= now() && "runUntil into the past");
  while (Kernel.pendingCount() > 0 &&
         Kernel.earliestTimeNs() <= Until.nanosecondsCount())
    step();
  Kernel.setNowNs(Until.nanosecondsCount());
}

CounterGroup Simulator::counterSnapshot() const {
  const SchedulerCounters &C = Kernel.counters();
  CounterGroup Group;
  Group.add("events", EventCount);
  Group.add("callback_events", C.CallbackEvents);
  Group.add("resume_events", C.ResumeEvents);
  Group.add("peak_queue_depth", C.PeakQueueDepth);
  Group.add("sbo_misses", C.SboMisses);
  Group.add("nodes_allocated", C.NodesAllocated);
  return Group;
}
