//===- sim/SimKernel.cpp --------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The two-level calendar queue.  Near-future events (inside a ~2 ms window
// of 4096 buckets, 512 ns each) sit in per-bucket (time, seq) min-heaps;
// far-future events sit in one overflow min-heap.  When the buckets drain,
// the window jumps to the overflow minimum and every overflow event inside
// the new window migrates into buckets.
//
// Correctness does not depend on the window placement: popEarliest always
// compares the first-bucket minimum against the overflow top, so an event
// that lands outside the current window (e.g. scheduled after runUntil
// fast-forwarded the clock) is still popped in exact (time, seq) order.
// Because the (time, seq) key is unique per event, pop order is independent
// of heap internals -- runs are bit-for-bit identical to the former
// binary-heap kernel.
//
//===----------------------------------------------------------------------===//

#include "sim/SimKernel.h"

#include <algorithm>
#include <bit>

using namespace parcs;
using namespace parcs::sim;

/// Min-heap order on the unique (time, seq) key.
static bool laterThan(int64_t AtA, uint64_t SeqA, int64_t AtB, uint64_t SeqB) {
  if (AtA != AtB)
    return AtB < AtA;
  return SeqB < SeqA;
}

SimKernel::SimKernel() : Buckets(NumBuckets), BucketBits(NumBuckets / 64) {
  WindowEndNs = WindowStartNs + (int64_t(NumBuckets) << BucketShift);
}

SimKernel::~SimKernel() { freeAllNodes(); }

size_t SimKernel::firstOccupiedBucket(size_t From) const {
  size_t Word = From >> 6;
  uint64_t Bits = BucketBits[Word] & (~uint64_t(0) << (From & 63));
  while (!Bits)
    Bits = BucketBits[++Word];
  return (Word << 6) + size_t(std::countr_zero(Bits));
}

void SimKernel::freeAllNodes() {
  while (!Immediate.empty())
    delete Immediate.pop_front();
  for (std::vector<EventNode *> &Bucket : Buckets)
    for (EventNode *Node : Bucket)
      delete Node;
  Buckets.clear();
  for (EventNode *Node : Overflow)
    delete Node;
  Overflow.clear();
  while (FreeList) {
    EventNode *Next = FreeList->NextFree;
    delete FreeList;
    FreeList = Next;
  }
  BucketedCount = PendingCount = 0;
}

// PARCS_HOT_BEGIN(calendar-queue-kernel): every event pays alloc/insert/
// pop once; a steady-state run must not allocate here.

inline void SimKernel::notePending() {
  ++PendingCount;
  Counters.PeakQueueDepth = std::max<uint64_t>(Counters.PeakQueueDepth,
                                               PendingCount);
}

// Forced inline: insert() must stay one straight-line function.
__attribute__((always_inline)) inline void
SimKernel::insertLater(EventNode *Node) {
  auto HeapPush = [](std::vector<EventNode *> &Heap, EventNode *N) {
    Heap.push_back(N);
    std::push_heap(Heap.begin(), Heap.end(),
                   [](const EventNode *A, const EventNode *B) {
                     return laterThan(A->AtNs, A->Seq, B->AtNs, B->Seq);
                   });
  };
  if (Node->AtNs >= WindowStartNs && Node->AtNs < WindowEndNs) {
    size_t Idx = size_t((Node->AtNs - WindowStartNs) >> BucketShift);
    HeapPush(Buckets[Idx], Node);
    markBucket(Idx);
    ++BucketedCount;
    ScanHint = std::min(ScanHint, Idx);
    return;
  }
  HeapPush(Overflow, Node);
  ++Counters.OverflowInserts;
}

void SimKernel::insert(EventNode *Node) {
  notePending();
  if (Node->AtNs == NowNs) {
    Immediate.push_back(Node);
    return;
  }
  insertLater(Node);
}

void SimKernel::insertOrdered(EventNode *Node) {
  assert(Node->AtNs >= NowNs && "scheduling into the past");
  assert(Node->Seq < NextSeq && "sequence number was never claimed");
  notePending();
  insertLater(Node);
}

void SimKernel::advanceWindow() {
  assert(BucketedCount == 0 && !Overflow.empty() && "nothing to advance to");
  ++Counters.WindowAdvances;
  auto Later = [](const EventNode *A, const EventNode *B) {
    return laterThan(A->AtNs, A->Seq, B->AtNs, B->Seq);
  };
  int64_t MinNs = Overflow.front()->AtNs;
  WindowStartNs = (MinNs >> BucketShift) << BucketShift;
  WindowEndNs = WindowStartNs + (int64_t(NumBuckets) << BucketShift);
  ScanHint = size_t((MinNs - WindowStartNs) >> BucketShift);
  while (!Overflow.empty() && Overflow.front()->AtNs < WindowEndNs) {
    std::pop_heap(Overflow.begin(), Overflow.end(), Later);
    EventNode *Node = Overflow.back();
    Overflow.pop_back();
    size_t Idx = size_t((Node->AtNs - WindowStartNs) >> BucketShift);
    Buckets[Idx].push_back(Node);
    std::push_heap(Buckets[Idx].begin(), Buckets[Idx].end(), Later);
    markBucket(Idx);
    ++BucketedCount;
  }
}

SimKernel::EventNode *SimKernel::popEarliest() {
  if (PendingCount == 0)
    return nullptr;
  if (Immediate.empty() && BucketedCount == 0)
    advanceWindow();
  // Three candidate lanes; every comparison uses the unique (time, seq)
  // key, so the winner -- and therefore the whole pop order -- does not
  // depend on which lane an event happened to land in.
  EventNode *Best = nullptr;
  enum { FromImmediate, FromBucket, FromOverflow } Src = FromImmediate;
  if (!Immediate.empty())
    Best = Immediate.front();
  size_t Idx = 0;
  if (BucketedCount > 0) {
    Idx = firstOccupiedBucket(ScanHint);
    ScanHint = Idx;
    EventNode *Candidate = Buckets[Idx].front();
    if (!Best || laterThan(Best->AtNs, Best->Seq, Candidate->AtNs,
                           Candidate->Seq)) {
      Best = Candidate;
      Src = FromBucket;
    }
  }
  // An event scheduled outside the current window (only possible after
  // runUntil fast-forwarded the clock past the window) sits in Overflow and
  // may precede every bucketed event.
  if (!Overflow.empty()) {
    EventNode *Candidate = Overflow.front();
    if (!Best || laterThan(Best->AtNs, Best->Seq, Candidate->AtNs,
                           Candidate->Seq)) {
      Best = Candidate;
      Src = FromOverflow;
    }
  }
  auto Later = [](const EventNode *A, const EventNode *B) {
    return laterThan(A->AtNs, A->Seq, B->AtNs, B->Seq);
  };
  switch (Src) {
  case FromImmediate:
    Immediate.pop_front();
    break;
  case FromBucket:
    std::pop_heap(Buckets[Idx].begin(), Buckets[Idx].end(), Later);
    Buckets[Idx].pop_back();
    if (Buckets[Idx].empty())
      unmarkBucket(Idx);
    --BucketedCount;
    break;
  case FromOverflow:
    std::pop_heap(Overflow.begin(), Overflow.end(), Later);
    Overflow.pop_back();
    break;
  }
  --PendingCount;
  return Best;
}

int64_t SimKernel::earliestTimeNs() {
  assert(PendingCount > 0 && "peeking an empty queue");
  if (Immediate.empty() && BucketedCount == 0)
    advanceWindow();
  int64_t Earliest = INT64_MAX;
  if (!Immediate.empty())
    Earliest = Immediate.front()->AtNs;
  if (BucketedCount > 0) {
    size_t Idx = firstOccupiedBucket(ScanHint);
    ScanHint = Idx;
    Earliest = std::min(Earliest, Buckets[Idx].front()->AtNs);
  }
  if (!Overflow.empty())
    Earliest = std::min(Earliest, Overflow.front()->AtNs);
  return Earliest;
}

// PARCS_HOT_END
