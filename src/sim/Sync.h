//===- sim/Sync.h - Futures, semaphores, wait groups ------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synchronisation primitives for simulated tasks.  All wake-ups go through
/// the simulator's event queue (never inline), so wake order is FIFO and
/// deterministic, and no primitive can recurse into another's critical
/// section.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_SYNC_H
#define PARCS_SIM_SYNC_H

#include "sim/Simulator.h"

#include <cassert>
#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace parcs::sim {

namespace detail {

template <typename T> struct FutureState {
  explicit FutureState(Simulator &Sim) : Sim(Sim) {}
  Simulator &Sim;
  std::optional<T> Value;
  /// Waiters in arrival order.  Nearly every future has exactly one (the
  /// RPC caller), held inline; later ones spill into a vector, so a
  /// Promise costs one allocation (the shared state) and no more.
  std::coroutine_handle<> FirstWaiter;
  std::vector<std::coroutine_handle<>> LaterWaiters;

  void addWaiter(std::coroutine_handle<> Handle) {
    if (!FirstWaiter)
      FirstWaiter = Handle;
    else
      LaterWaiters.push_back(Handle);
  }

  void set(T NewValue) {
    assert(!Value && "promise fulfilled twice");
    Value.emplace(std::move(NewValue));
    if (FirstWaiter)
      Sim.scheduleResume(SimTime(), std::exchange(FirstWaiter, nullptr));
    for (std::coroutine_handle<> Handle : LaterWaiters)
      Sim.scheduleResume(SimTime(), Handle);
    LaterWaiters.clear();
  }
};

} // namespace detail

template <typename T> class Promise;

/// A value that becomes available at some virtual time.  Copyable; any
/// number of tasks may await the same future.  Awaiting yields a const
/// reference to the stored value.
template <typename T> class Future {
public:
  Future() = default;

  bool ready() const { return State && State->Value.has_value(); }
  bool valid() const { return State != nullptr; }

  /// Value accessor; only valid when ready.
  const T &get() const {
    assert(ready() && "future not ready");
    return *State->Value;
  }

  auto operator co_await() const noexcept {
    struct Awaiter {
      std::shared_ptr<detail::FutureState<T>> State;
      bool await_ready() const noexcept {
        return State->Value.has_value();
      }
      void await_suspend(std::coroutine_handle<> Handle) {
        State->addWaiter(Handle);
      }
      const T &await_resume() const { return *State->Value; }
    };
    assert(State && "awaiting an empty future");
    return Awaiter{State};
  }

private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<detail::FutureState<T>> State)
      : State(std::move(State)) {}
  std::shared_ptr<detail::FutureState<T>> State;
};

/// Producer side of a Future.  Copyable (shared state).
template <typename T> class Promise {
public:
  explicit Promise(Simulator &Sim)
      : State(std::make_shared<detail::FutureState<T>>(Sim)) {}

  Future<T> future() const { return Future<T>(State); }

  /// Publishes the value and wakes all waiters (via the event queue).
  void set(T Value) const { State->set(std::move(Value)); }
  bool fulfilled() const { return State->Value.has_value(); }

private:
  std::shared_ptr<detail::FutureState<T>> State;
};

/// Counting semaphore with FIFO wake order.
class Semaphore {
public:
  Semaphore(Simulator &Sim, int64_t InitialCount)
      : Sim(Sim), Count(InitialCount) {
    assert(InitialCount >= 0 && "negative initial semaphore count");
  }

  /// Awaitable that decrements the count, suspending while it is zero.
  auto acquire() {
    struct Awaiter {
      Semaphore &Sema;
      bool await_ready() { return Sema.tryAcquire(); }
      void await_suspend(std::coroutine_handle<> Handle) {
        Sema.Waiters.push_back(Handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Takes a permit without suspending; false when none is free.
  bool tryAcquire() {
    if (Count == 0)
      return false;
    --Count;
    return true;
  }

  /// Increments the count or hands the permit to the oldest waiter.
  void release() {
    if (!Waiters.empty()) {
      std::coroutine_handle<> Next = Waiters.front();
      Waiters.pop_front();
      // The permit transfers directly to the waiter; Count stays 0.
      Sim.scheduleResume(SimTime(), Next);
      return;
    }
    ++Count;
  }

  int64_t available() const { return Count; }
  size_t waiting() const { return Waiters.size(); }

private:
  Simulator &Sim;
  int64_t Count;
  std::deque<std::coroutine_handle<>> Waiters;
};

/// Mutual exclusion built on a binary semaphore.
class Mutex {
public:
  explicit Mutex(Simulator &Sim) : Sema(Sim, 1) {}
  auto lock() { return Sema.acquire(); }
  void unlock() { Sema.release(); }

private:
  Semaphore Sema;
};

namespace detail {

template <typename T>
void forwardFirst(Simulator &Sim, Future<T> Source, Promise<T> Sink) {
  struct Forward {
    static Task<void> run(Future<T> Source, Promise<T> Sink) {
      const T &Value = co_await Source;
      if (!Sink.fulfilled())
        Sink.set(Value);
    }
  };
  Sim.spawn(Forward::run(std::move(Source), std::move(Sink)));
}

} // namespace detail

/// Returns a future fulfilled with the value of whichever input future
/// fulfils first (a two-way race; the loser's value is dropped).  Ties
/// resolve to \p A (deterministic event order).
template <typename T>
Future<T> firstOf(Simulator &Sim, Future<T> A, Future<T> B) {
  Promise<T> Winner(Sim);
  detail::forwardFirst(Sim, std::move(A), Winner);
  detail::forwardFirst(Sim, std::move(B), Winner);
  return Winner.future();
}

/// Returns a future fulfilled with \p Value after \p Delay -- combined
/// with firstOf this builds timeouts over arbitrary futures.
template <typename T>
Future<T> afterDelay(Simulator &Sim, SimTime Delay, T Value) {
  Promise<T> Done(Sim);
  Sim.schedule(Delay, [Done, Value = std::move(Value)]() mutable {
    Done.set(std::move(Value));
  });
  return Done.future();
}

/// Go-style wait group: tasks call done(); waiters suspend until the
/// counter reaches zero.
class WaitGroup {
public:
  explicit WaitGroup(Simulator &Sim) : Sim(Sim) {}

  void add(int64_t Delta = 1) {
    Count += Delta;
    assert(Count >= 0 && "wait group count went negative");
    if (Count == 0)
      wakeAll();
  }

  void done() { add(-1); }

  auto wait() {
    struct Awaiter {
      WaitGroup &Group;
      bool await_ready() const { return Group.Count == 0; }
      void await_suspend(std::coroutine_handle<> Handle) {
        Group.Waiters.push_back(Handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  int64_t count() const { return Count; }

private:
  void wakeAll() {
    for (std::coroutine_handle<> Handle : Waiters)
      Sim.scheduleResume(SimTime(), Handle);
    Waiters.clear();
  }

  Simulator &Sim;
  int64_t Count = 0;
  std::deque<std::coroutine_handle<>> Waiters;
};

} // namespace parcs::sim

#endif // PARCS_SIM_SYNC_H
