//===- vm/ThreadPool.h - Bounded worker pool --------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded pool of simulated worker threads on one node, modelling the
/// Mono/.Net thread pool.  The paper observes that the pool "reduces the
/// thread creation cost; however limiting the number of running threads in
/// parallel applications reduces the overlap among computation and
/// communication and also produces starvation in some application threads"
/// -- both effects fall out of this model: at most MaxWorkers items run
/// concurrently and excess items queue FIFO.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_VM_THREADPOOL_H
#define PARCS_VM_THREADPOOL_H

#include "sim/Channel.h"
#include "sim/Sync.h"
#include "sim/Task.h"
#include "support/InlineFunction.h"
#include "vm/Node.h"

namespace parcs::vm {

/// FIFO work queue drained by a fixed set of simulated worker threads.
class ThreadPool {
public:
  /// A queued work item: a thunk producing the task to run.  InlineFunction
  /// keeps the common captures (an endpoint pointer plus a message) out of
  /// the heap -- one fewer allocation per dispatched call.
  using WorkItem = parcs::InlineFunction<sim::Task<void>(), 64>;

  /// Creates the pool with \p MaxWorkers workers (default: the node VM's
  /// configured cap) and starts the worker loops.
  explicit ThreadPool(Node &Host, int MaxWorkers = 0);
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;
  /// Folds pool counters into the global metrics registry.
  ~ThreadPool();

  /// Enqueues a work item.  Callable from event context (non-suspending).
  void post(WorkItem Work);

  /// Awaitable: resumes once every posted item has completed.
  auto waitIdle() { return Pending.wait(); }

  int workers() const { return MaxWorkers; }
  size_t queueDepth() const { return Queue.size(); }
  /// Items posted over the pool's lifetime.
  uint64_t posted() const { return Posted; }

private:
  sim::Task<void> workerLoop();

  Node &Host;
  int MaxWorkers;
  sim::Channel<WorkItem> Queue;
  sim::WaitGroup Pending;
  uint64_t Posted = 0;
  /// High-water mark of the backlog (items queued behind busy workers).
  uint64_t PeakQueue = 0;
  /// Workers between recv() and done() right now.  On a crash these are
  /// lost (parked in compute) or zombies (resume later and see a newer
  /// node epoch); the restart hook settles their accounting and respawns
  /// replacements.
  int Running = 0;
  /// Workers respawned after node restarts (0 in fault-free runs).
  uint64_t Respawned = 0;
  uint64_t RestartHookId = 0;
};

} // namespace parcs::vm

#endif // PARCS_VM_THREADPOOL_H
