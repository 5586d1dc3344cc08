//===- vm/ThreadPool.cpp --------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "vm/ThreadPool.h"

#include "support/Metrics.h"
#include "support/Trace.h"

using namespace parcs;
using namespace parcs::vm;

ThreadPool::ThreadPool(Node &Host, int MaxWorkers)
    : Host(Host),
      MaxWorkers(MaxWorkers > 0 ? MaxWorkers
                                : Host.costModel().ThreadPoolMax),
      Queue(Host.sim()), Pending(Host.sim()) {
  assert(this->MaxWorkers > 0 && "pool needs at least one worker");
  for (int I = 0; I < this->MaxWorkers; ++I)
    Host.sim().spawn(workerLoop());
  // On a node restart, workers that were mid-item at the crash are gone
  // (parked) or stale (zombies): settle their waitIdle() accounting and
  // spawn replacements so the pool regains full capacity.  Workers idle in
  // Queue.recv() survived the crash and need no replacement.
  RestartHookId = Host.addRestartHook([this] {
    int Lost = Running;
    Running = 0;
    Respawned += static_cast<uint64_t>(Lost);
    if (Lost > 0)
      trace::instant(this->Host.id(), 0, "fault.pool_respawn",
                     this->Host.sim().now().nanosecondsCount());
    for (int I = 0; I < Lost; ++I) {
      Pending.done();
      this->Host.sim().spawn(workerLoop());
    }
  });
}

ThreadPool::~ThreadPool() {
  Host.removeRestartHook(RestartHookId);
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter("pool.items_posted").add(Posted);
  Reg.gauge("pool.peak_queue_depth")
      .noteMax(static_cast<int64_t>(PeakQueue));
  if (Respawned > 0)
    Reg.counter("pool.workers_respawned").add(Respawned);
}

void ThreadPool::post(WorkItem Work) {
  ++Posted;
  Pending.add(1);
  Queue.send(std::move(Work));
  size_t Depth = Queue.size();
  if (Depth > PeakQueue)
    PeakQueue = Depth;
  trace::counter(Host.id(), "pool.queue_depth",
                 Host.sim().now().nanosecondsCount(),
                 static_cast<int64_t>(Depth));
}

sim::Task<void> ThreadPool::workerLoop() {
  for (;;) {
    WorkItem Work = co_await Queue.recv();
    uint64_t Epoch = Host.epoch();
    ++Running;
    co_await Host.compute(calib::ThreadPoolDispatch);
    co_await Work();
    if (Host.epoch() != Epoch)
      // Zombie: the node crashed (and restarted) while this item was in
      // flight on a non-compute await.  The restart hook already settled
      // Pending/Running and respawned a replacement worker; this frame
      // just dies.
      co_return;
    --Running;
    Pending.done();
  }
}
