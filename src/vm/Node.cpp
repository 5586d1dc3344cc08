//===- vm/Node.cpp --------------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "vm/Node.h"

#include "support/Logging.h"
#include "support/PostMortem.h"

#include <algorithm>

using namespace parcs;
using namespace parcs::vm;

// PARCS_HOT_BEGIN(cpu-charge): every call path charges the CPU a few
// times; a single free slice must cost one callback event and nothing else.

std::coroutine_handle<> Node::Charge::await_suspend(
    std::coroutine_handle<> Awaiting) {
  if (!Owner.Alive)
    return std::noop_coroutine(); // compute() on a down node parks.
  if (CpuTime <= Owner.Quantum && Owner.CoreSlots.tryAcquire()) {
    ++Owner.Runnable;
    Caller = Awaiting;
    auto Finish = [this] { finishSlice(); };
    static_assert(sim::EventCallback::fitsInline<decltype(Finish)>(),
                  "a CPU charge must not heap-allocate its event");
    Owner.Sim.schedule(CpuTime, Finish);
    return std::noop_coroutine();
  }
  Slow = Owner.chargeSlices(CpuTime, Checked);
  return std::move(Slow).operator co_await().await_suspend(Awaiting);
}

void Node::Charge::finishSlice() {
  Node &N = Owner;
  bool Up = N.Alive;
  // Crashed mid-slice: the partial slice's work is lost, not billed.
  if (Up)
    N.Busy += CpuTime;
  N.CoreSlots.release();
  --N.Runnable;
  if (!Up && !Checked)
    return; // compute(): a crashed node's thread parks here.
  Ok = Up;
  Caller.resume();
}

// PARCS_HOT_END

sim::Task<bool> Node::chargeSlices(sim::SimTime CpuTime, bool Checked) {
  ++Runnable;
  sim::SimTime Remaining = CpuTime;
  bool Up = true;
  while (Up && Remaining > sim::SimTime()) {
    co_await CoreSlots.acquire();
    sim::SimTime Slice = Remaining < Quantum ? Remaining : Quantum;
    // A crash while queued for the core skips the slice; one mid-slice
    // loses it (the partial work is not billed).
    if (Alive)
      co_await Sim.delay(Slice);
    Up = Alive;
    if (Up) {
      Busy += Slice;
      Remaining -= Slice;
    }
    // Yield the core between slices so equal-priority threads round-robin;
    // after a crash it goes back so restarted work is not starved by dead
    // holders.
    CoreSlots.release();
  }
  --Runnable;
  if (!Up && !Checked)
    co_await haltForever();
  co_return Up;
}

void Node::crash() {
  assert(Alive && "crash: node already down");
  Alive = false;
  ++Epoch;
  LogNodeScope Scope(Id);
  PARCS_LOG(Info, "node " << Id << ": crashed (epoch " << Epoch << ")");
  postmortem::fire("crash", Id, Sim.now().nanosecondsCount());
}

void Node::restart() {
  assert(!Alive && "restart: node is up");
  Alive = true;
  LogNodeScope Scope(Id);
  PARCS_LOG(Info, "node " << Id << ": restarted (epoch " << Epoch << ")");
  // Registration order keeps the respawn sequence deterministic.
  for (auto &[HookId, Hook] : RestartHooks)
    Hook();
}

uint64_t Node::addRestartHook(std::function<void()> Hook) {
  uint64_t Id = NextHookId++;
  RestartHooks.emplace_back(Id, std::move(Hook));
  return Id;
}

void Node::removeRestartHook(uint64_t Id) {
  RestartHooks.erase(std::remove_if(RestartHooks.begin(), RestartHooks.end(),
                                    [Id](const auto &E) {
                                      return E.first == Id;
                                    }),
                     RestartHooks.end());
}

void Node::startThread(sim::Task<void> Body) {
  // The creation cost is charged on the node before the body runs, matching
  // what a pool would amortise away.
  struct Launcher {
    static sim::Task<void> run(Node &Self, sim::Task<void> Body) {
      co_await Self.compute(calib::ThreadCreateCost);
      co_await std::move(Body);
    }
  };
  Sim.spawn(Launcher::run(*this, std::move(Body)));
}
