//===- sim/Channel.h - FIFO message channel ---------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FIFO channel (mailbox) connecting simulated tasks.  Receivers suspend
/// while the channel is empty; with a bounded capacity, senders suspend
/// while it is full.  NICs, remoting dispatchers and MPI matching queues are
/// all built on this.
///
/// Wake-ups are routed through the simulator event queue.  Items handed to
/// a woken receiver (and slots handed to a woken sender) are *reserved* so
/// that a task arriving between the wake-up being scheduled and it running
/// cannot steal them; this keeps delivery strictly FIFO.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_CHANNEL_H
#define PARCS_SIM_CHANNEL_H

#include "sim/Ring.h"
#include "sim/Simulator.h"

#include <cassert>
#include <coroutine>
#include <limits>

namespace parcs::sim {

/// FIFO channel of T with deterministic FIFO wake order.
template <typename T> class Channel {
public:
  /// \p Capacity bounds the number of buffered items; the default is
  /// effectively unbounded.
  explicit Channel(Simulator &Sim,
                   size_t Capacity = std::numeric_limits<size_t>::max())
      : Sim(Sim), Capacity(Capacity) {
    assert(Capacity > 0 && "channel capacity must be positive");
  }

  size_t size() const { return Items.size(); }
  bool empty() const { return Items.empty(); }

  /// Non-suspending send; asserts that the channel has room.  Use this from
  /// non-coroutine contexts (e.g. event callbacks).
  void trySend(T Item) {
    assert(hasSpace() && "trySend on a full channel");
    pushAndWake(std::move(Item));
  }

  /// Awaitable send; suspends while the channel is full.
  auto send(T Item) {
    struct Awaiter {
      Channel &Chan;
      T Item;
      bool Suspended = false;
      bool await_ready() { return Chan.hasSpace(); }
      void await_suspend(std::coroutine_handle<> Handle) {
        Suspended = true;
        Chan.SendWaiters.push_back(Handle);
      }
      void await_resume() {
        if (Suspended) {
          assert(Chan.ReservedSlots > 0 && "woken sender without reservation");
          --Chan.ReservedSlots;
        }
        assert(Chan.Items.size() < Chan.Capacity && "send without space");
        Chan.pushAndWake(std::move(Item));
      }
    };
    return Awaiter{*this, std::move(Item)};
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
        return Chan.popAndWake();
      }
    };
    return Awaiter{*this};
  }

private:
  /// Space visible to a new sender: capacity minus live items minus slots
  /// already promised to woken senders.
  bool hasSpace() const {
    return Items.size() + ReservedSlots < Capacity;
  }

  /// An item a new receiver may take without starving a woken one.
  bool hasUnreservedItem() const { return Items.size() > ReservedItems; }

  void pushAndWake(T Item) {
    Items.push_back(std::move(Item));
    if (!RecvWaiters.empty()) {
      std::coroutine_handle<> Next = RecvWaiters.pop_front();
      ++ReservedItems;
      Sim.scheduleResume(SimTime(), Next);
    }
  }

  T popAndWake() {
    assert(!Items.empty() && "receive from empty channel");
    T Item = Items.pop_front();
    if (!SendWaiters.empty()) {
      std::coroutine_handle<> Next = SendWaiters.pop_front();
      ++ReservedSlots;
      Sim.scheduleResume(SimTime(), Next);
    }
    return Item;
  }

  Simulator &Sim;
  size_t Capacity;
  Ring<T> Items;
  Ring<std::coroutine_handle<>> RecvWaiters;
  Ring<std::coroutine_handle<>> SendWaiters;
  /// Items promised to receivers that have been woken but not yet resumed.
  size_t ReservedItems = 0;
  /// Slots promised to senders that have been woken but not yet resumed.
  size_t ReservedSlots = 0;
};

} // namespace parcs::sim

#endif // PARCS_SIM_CHANNEL_H
