//===- sim/Channel.h - FIFO message channel ---------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An unbounded FIFO channel (mailbox) connecting simulated tasks.  Sends
/// never suspend; receivers suspend while the channel is empty.  NICs,
/// remoting dispatchers and MPI matching queues are all built on this.
///
/// Wake-ups are routed through the simulator event queue.  Items handed to
/// a woken receiver are *reserved* so that a task arriving between the
/// wake-up being scheduled and it running cannot steal them; this keeps
/// delivery strictly FIFO.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_CHANNEL_H
#define PARCS_SIM_CHANNEL_H

#include "sim/Ring.h"
#include "sim/Simulator.h"

#include <cassert>
#include <coroutine>

namespace parcs::sim {

/// FIFO channel of T with deterministic FIFO wake order.
template <typename T> class Channel {
public:
  explicit Channel(Simulator &Sim) : Sim(Sim) {}

  size_t size() const { return Items.size(); }
  bool empty() const { return Items.empty(); }

  /// Appends \p Item and wakes the oldest waiting receiver, if any.
  void send(T Item) {
    Items.push_back(std::move(Item));
    if (!RecvWaiters.empty()) {
      std::coroutine_handle<> Next = RecvWaiters.pop_front();
      ++ReservedItems;
      Sim.scheduleResume(SimTime(), Next);
    }
  }

  /// Awaitable receive; suspends while the channel is empty.
  auto recv() {
    struct Awaiter {
      Channel &Chan;
      bool Suspended = false;
      bool await_ready() const { return Chan.hasUnreservedItem(); }
      void await_suspend(std::coroutine_handle<> Handle) {
        Suspended = true;
        Chan.RecvWaiters.push_back(Handle);
      }
      T await_resume() {
        if (Suspended) {
          assert(Chan.ReservedItems > 0 &&
                 "woken receiver without reservation");
          --Chan.ReservedItems;
        }
        assert(!Chan.Items.empty() && "receive from empty channel");
        return Chan.Items.pop_front();
      }
    };
    return Awaiter{*this};
  }

private:
  /// An item a new receiver may take without starving a woken one.
  bool hasUnreservedItem() const { return Items.size() > ReservedItems; }

  Simulator &Sim;
  Ring<T> Items;
  Ring<std::coroutine_handle<>> RecvWaiters;
  /// Items promised to receivers that have been woken but not yet resumed.
  size_t ReservedItems = 0;
};

} // namespace parcs::sim

#endif // PARCS_SIM_CHANNEL_H
