//===- sim/SimKernel.h - Event-heap kernel ----------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocation-free event kernel behind sim::Simulator.  A SimKernel is
/// the pending-event set plus the virtual clock and sequence counter that
/// define pop order:
///
///  - events scheduled at exactly the current time go to a FIFO lane
///    (push order there is already (time, seq) order);
///  - every other event goes to a 4-ary min-heap whose entries carry their
///    (time, seq) key inline, so sifting never touches an event node;
///  - event nodes are recycled through a free list, so a steady-state run
///    performs zero allocations per event.
///
/// Pop order is strictly (time, sequence); the unique key makes the order
/// independent of heap layout and of which lane an event landed in, so a
/// kernel's event stream is bit-for-bit reproducible.  The kernel is
/// single-threaded by contract.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_SIMKERNEL_H
#define PARCS_SIM_SIMKERNEL_H

#include "sim/Ring.h"
#include "sim/SimTime.h"
#include "support/InlineFunction.h"

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

namespace parcs::sim {

/// Event callback storage: 64 inline bytes covers every capture on the
/// kernel's hot paths (the largest is a network Message plus one pointer,
/// exactly 64 bytes).
using EventCallback = parcs::InlineFunction<void(), 64>;

/// Scheduler observability counters (see Simulator::counters).  Plain
/// struct so benches can diff snapshots.
struct SchedulerCounters {
  /// Events executed, by kind.
  uint64_t CallbackEvents = 0;
  uint64_t ResumeEvents = 0;
  /// High-water mark of pending events.
  uint64_t PeakQueueDepth = 0;
  /// Callback captures that exceeded the inline buffer (heap fallback).
  uint64_t SboMisses = 0;
  /// Event nodes allocated (free-list misses; steady state allocates none).
  uint64_t NodesAllocated = 0;
};

/// The pending-event set of one virtual-time event loop: clock, sequence
/// counter, FIFO lane, event heap and the recycling free list.
class SimKernel {
public:
  /// One pending event.  Resume events carry the raw coroutine handle (Fn
  /// stays empty); callback events carry Fn (Handle stays null).  Nodes are
  /// recycled through the free list, linked via NextFree.
  struct EventNode {
    int64_t AtNs = 0;
    uint64_t Seq = 0;
    EventNode *NextFree = nullptr;
    std::coroutine_handle<> Handle;
    EventCallback Fn;
  };

  SimKernel();
  SimKernel(const SimKernel &) = delete;
  SimKernel &operator=(const SimKernel &) = delete;
  ~SimKernel();

  /// Virtual clock, owned by the kernel so the Immediate-lane test and the
  /// not-into-the-past asserts agree with pop order by construction.
  int64_t nowNs() const { return NowNs; }
  void setNowNs(int64_t Ns) {
    assert(Ns >= NowNs && "kernel clock went backwards");
    NowNs = Ns;
  }

  /// Claims the next event sequence number (ties at equal timestamps pop in
  /// claim order).  A number may be claimed ahead of its event: see
  /// insertOrdered.
  uint64_t takeSeq() { return NextSeq++; }

  size_t pendingCount() const { return Immediate.size() + Heap.size(); }

  // PARCS_HOT_BEGIN(event-node-alloc): the inline half of the kernel; a
  // steady-state run must recycle instead of allocating.

  /// Returns a recycled (or, on free-list miss, freshly allocated) node
  /// stamped with (\p AtNs, \p Seq).  The caller emplaces the payload and
  /// hands the node to insert().
  EventNode *allocNode(int64_t AtNs, uint64_t Seq) {
    EventNode *Node = FreeList;
    if (Node) {
      FreeList = Node->NextFree;
      Node->NextFree = nullptr;
    } else {
      // parcs-lint: allow(hot-path-alloc): free-list miss is the cold
      // warm-up path; NodesAllocated counters + bench zero-alloc assert
      // bound it.
      Node = new EventNode();
      ++Counters.NodesAllocated;
    }
    Node->AtNs = AtNs;
    Node->Seq = Seq;
    return Node;
  }

  /// Returns a dead node (payload already destroyed) to the free list.
  void recycle(EventNode *Node) {
    assert(!Node->Fn && !Node->Handle && "recycling a live event");
    Node->NextFree = FreeList;
    FreeList = Node;
  }

  // PARCS_HOT_END

  /// Links \p Node into the lane its timestamp selects.
  void insert(EventNode *Node);

  /// Links \p Node into the heap, never the immediate lane: for a node
  /// stamped with a sequence number claimed earlier, whose key may precede
  /// events already queued at the current time.  Such a node pops exactly
  /// where it would have had it been inserted when its number was claimed,
  /// provided no event with a later key has popped since.
  void insertOrdered(EventNode *Node);

  /// Removes and returns the earliest event, or null when empty.
  EventNode *popEarliest();

  /// Time of the earliest pending event; only valid when pendingCount() > 0.
  int64_t earliestTimeNs() const;

  /// Bookkeeping hook for callers whose callable fell off the inline
  /// buffer (the template schedule path detects this at compile time).
  void noteSboMiss() { ++Counters.SboMisses; }

  const SchedulerCounters &counters() const { return Counters; }
  SchedulerCounters &counters() { return Counters; }

private:
  /// One heap entry: the node's (time, seq) key, copied inline so sifting
  /// compares and moves 24-byte entries without dereferencing nodes.
  struct Entry {
    int64_t AtNs;
    uint64_t Seq;
    EventNode *Node;
  };
  /// Children per heap node.  Four halves the depth of a binary heap, and
  /// a node's children sit side by side in 96 bytes.
  static constexpr size_t Arity = 4;

  /// Counts one more pending event into the high-water mark.
  void notePending();
  void heapPush(Entry E);
  EventNode *heapPop();
  void freeAllNodes();

  int64_t NowNs = 0;
  uint64_t NextSeq = 0;

  /// Events scheduled at exactly the current time, in push order.  Because
  /// NowNs is non-decreasing and Seq is increasing, push order here IS
  /// (time, seq) order, so the head is always this lane's minimum.  Nodes
  /// carrying an earlier-claimed Seq bypass it (insertOrdered).
  Ring<EventNode *> Immediate{64};
  /// Every other pending event, as a 4-ary (time, seq) min-heap.
  std::vector<Entry> Heap;

  EventNode *FreeList = nullptr;
  SchedulerCounters Counters;
};

} // namespace parcs::sim

#endif // PARCS_SIM_SIMKERNEL_H
