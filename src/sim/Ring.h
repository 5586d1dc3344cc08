//===- sim/Ring.h - Power-of-two FIFO ring ----------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FIFO queue behind the kernel's immediate lane, channels and
/// semaphores: a power-of-two ring of slots that doubles when full and
/// never shrinks.  A queue that stays short allocates once, on its first
/// push, and then reuses its slots -- unlike std::deque, which allocates a
/// fresh node every few entries even when it never holds more than one.
///
/// A popped slot keeps its moved-from value until it is reused, so T must
/// be default-constructible and move-assignable, and a moved-from T should
/// hold no resources (true of handles, pointers, vectors and the kernel's
/// callables).
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_RING_H
#define PARCS_SIM_RING_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace parcs::sim {

template <typename T> class Ring {
public:
  Ring() = default;
  /// Sizes the ring up front (rounded up to a power of two).
  explicit Ring(size_t InitialCapacity)
      : Slots(std::bit_ceil(InitialCapacity)) {}

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  // PARCS_HOT_BEGIN(fifo-ring): every channel message, semaphore wait and
  // same-time event passes through here; only a full ring allocates.

  T &front() {
    assert(Count > 0 && "front of an empty ring");
    return Slots[Head];
  }

  template <typename U> void push_back(U &&Item) {
    if (Count == Slots.size())
      grow();
    Slots[(Head + Count) & (Slots.size() - 1)] = std::forward<U>(Item);
    ++Count;
  }

  T pop_front() {
    assert(Count > 0 && "pop from an empty ring");
    T Item = std::move(Slots[Head]);
    Head = (Head + 1) & (Slots.size() - 1);
    --Count;
    return Item;
  }

  // PARCS_HOT_END

private:
  /// Doubles the slots (eight on first use), unwrapping the live entries
  /// to the front in FIFO order.
  void grow() {
    std::vector<T> Bigger(Slots.empty() ? 8 : 2 * Slots.size());
    for (size_t I = 0; I < Count; ++I)
      Bigger[I] = std::move(Slots[(Head + I) & (Slots.size() - 1)]);
    Slots = std::move(Bigger);
    Head = 0;
  }

  std::vector<T> Slots;
  size_t Head = 0;
  size_t Count = 0;
};

} // namespace parcs::sim

#endif // PARCS_SIM_RING_H
