//===- sim/SimKernel.cpp --------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The event heap.  Events at the current time wait in the FIFO lane; every
// other event sits in one 4-ary min-heap of inline (time, seq, node)
// entries.  popEarliest compares the lane's head with the heap's top on the
// unique (time, seq) key, so the pop order does not depend on which lane
// an event landed in or on the heap's layout.
//
// The kernel sees shallow queues: at most a few hundred pending events on
// any bench or perfbench workload, so the heap stays in a few kilobytes of
// cache (docs/perf.md, "The event queue").
//
//===----------------------------------------------------------------------===//

#include "sim/SimKernel.h"

#include <algorithm>

using namespace parcs;
using namespace parcs::sim;

/// Heap slots reserved up front: more than the deepest queue of any bench
/// or perfbench workload, so a run grows the heap only past that depth.
static constexpr size_t InitialHeapCapacity = 256;

SimKernel::SimKernel() { Heap.reserve(InitialHeapCapacity); }

SimKernel::~SimKernel() { freeAllNodes(); }

void SimKernel::freeAllNodes() {
  // Deleting a pending node destroys its callable.
  while (!Immediate.empty())
    delete Immediate.pop_front();
  for (const Entry &E : Heap)
    delete E.Node;
  Heap.clear();
  while (FreeList) {
    EventNode *Next = FreeList->NextFree;
    delete FreeList;
    FreeList = Next;
  }
}

// PARCS_HOT_BEGIN(event-heap): every event pays insert and pop once; a
// steady-state run must not allocate here.

/// Min-heap order on the unique (time, seq) key.
static bool precedes(int64_t AtA, uint64_t SeqA, int64_t AtB, uint64_t SeqB) {
  if (AtA != AtB)
    return AtA < AtB;
  return SeqA < SeqB;
}

inline void SimKernel::notePending() {
  Counters.PeakQueueDepth =
      std::max<uint64_t>(Counters.PeakQueueDepth, pendingCount());
}

inline void SimKernel::heapPush(Entry E) {
  size_t Hole = Heap.size();
  Heap.push_back(E);
  while (Hole > 0) {
    size_t Parent = (Hole - 1) / Arity;
    if (!precedes(E.AtNs, E.Seq, Heap[Parent].AtNs, Heap[Parent].Seq))
      break;
    Heap[Hole] = Heap[Parent];
    Hole = Parent;
  }
  Heap[Hole] = E;
}

inline SimKernel::EventNode *SimKernel::heapPop() {
  EventNode *Top = Heap.front().Node;
  Entry Last = Heap.back();
  Heap.pop_back();
  size_t Size = Heap.size();
  if (Size == 0)
    return Top;
  // Move the last entry down from the root, into the hole its earliest
  // child leaves, until no child precedes it.
  size_t Hole = 0;
  for (;;) {
    size_t First = Hole * Arity + 1;
    if (First >= Size)
      break;
    size_t End = std::min(First + Arity, Size);
    size_t Min = First;
    for (size_t Child = First + 1; Child < End; ++Child)
      if (precedes(Heap[Child].AtNs, Heap[Child].Seq, Heap[Min].AtNs,
                   Heap[Min].Seq))
        Min = Child;
    if (!precedes(Heap[Min].AtNs, Heap[Min].Seq, Last.AtNs, Last.Seq))
      break;
    Heap[Hole] = Heap[Min];
    Hole = Min;
  }
  Heap[Hole] = Last;
  return Top;
}

void SimKernel::insert(EventNode *Node) {
  if (Node->AtNs == NowNs)
    Immediate.push_back(Node);
  else
    heapPush({Node->AtNs, Node->Seq, Node});
  notePending();
}

void SimKernel::insertOrdered(EventNode *Node) {
  assert(Node->AtNs >= NowNs && "scheduling into the past");
  assert(Node->Seq < NextSeq && "sequence number was never claimed");
  heapPush({Node->AtNs, Node->Seq, Node});
  notePending();
}

SimKernel::EventNode *SimKernel::popEarliest() {
  if (!Immediate.empty()) {
    EventNode *Head = Immediate.front();
    // The lane holds only events at the current time, so the heap's top
    // precedes its head only at that time and with an earlier-claimed
    // sequence number (insertOrdered).
    if (Heap.empty() || !precedes(Heap.front().AtNs, Heap.front().Seq,
                                  Head->AtNs, Head->Seq)) {
      Immediate.pop_front();
      return Head;
    }
  } else if (Heap.empty()) {
    return nullptr;
  }
  return heapPop();
}

int64_t SimKernel::earliestTimeNs() const {
  assert(pendingCount() > 0 && "peeking an empty queue");
  return Immediate.empty() ? Heap.front().AtNs : NowNs;
}

// PARCS_HOT_END
