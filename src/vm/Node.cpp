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

// PARCS_HOT_BEGIN(cpu-charge): every call path charges the CPU several
// times; a charge costs one callback per slice plus one per core
// hand-over, and allocates nothing.

void Node::Charge::await_suspend(std::coroutine_handle<> Awaiting) {
  if (!Owner.Alive)
    return; // compute() on a down node parks.
  Caller = Awaiting;
  ++Owner.Runnable;
  if (Owner.FreeCores > 0) {
    --Owner.FreeCores;
    startSlice();
    return;
  }
  Owner.Waiting.push_back(this);
}

void Node::Charge::startSlice() {
  auto End = [this] { finishSlice(); };
  static_assert(sim::EventCallback::fitsInline<decltype(End)>(),
                "a CPU slice must not heap-allocate its event");
  Owner.Sim.schedule(slice(), End);
}

void Node::Charge::finishSlice() {
  Node &N = Owner;
  bool Up = N.Alive;
  // Crashed mid-slice: the partial slice's work is lost, not billed.
  if (Up) {
    N.Busy += slice();
    Remaining -= slice();
  }
  if (!Up || Remaining <= sim::SimTime()) {
    N.releaseCore();
    finish(Up);
    return;
  }
  if (N.Waiting.empty()) {
    startSlice();
    return;
  }
  // Yield the core between slices so equal threads round-robin.
  N.releaseCore();
  N.Waiting.push_back(this);
}

void Node::Charge::takeCore() {
  if (Owner.Alive) {
    startSlice();
    return;
  }
  // The node crashed while this charge queued: the core goes back unused,
  // so restarted work is not starved by dead holders.
  Owner.releaseCore();
  finish(false);
}

void Node::Charge::finish(bool Up) {
  --Owner.Runnable;
  if (!Up && !Checked)
    return; // compute(): a crashed node's thread parks here.
  Ok = Up;
  Caller.resume();
}

void Node::releaseCore() {
  if (Waiting.empty()) {
    ++FreeCores;
    return;
  }
  Charge *Next = Waiting.pop_front();
  Sim.schedule(sim::SimTime(), [Next] { Next->takeCore(); });
}

// PARCS_HOT_END

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
