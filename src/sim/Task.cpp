//===- sim/Task.cpp -------------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The cold half of the coroutine frame pool: arming and running the
// thread-exit hook that hands a thread's recycled frames back to the global
// allocator.
//
//===----------------------------------------------------------------------===//

#include "sim/Task.h"

using namespace parcs::sim::detail;

bool FramePool::arm() noexcept {
  if (Tls.Retired)
    return false;
  // A block-scope thread_local with a destructor: constructed the first
  // time control passes here, destroyed when the thread exits.  Kept apart
  // from Tls so the hot path never pays its initialisation guard.
  struct Reaper {
    ~Reaper() {
      for (size_t Class = 0; Class < Classes; ++Class) {
        while (void *Frame = Tls.Free[Class]) {
          Tls.Free[Class] = *static_cast<void **>(Frame);
          ::operator delete(Frame, blockBytes(Class));
        }
      }
      Tls.Armed = false;
      Tls.Retired = true;
    }
  };
  static thread_local Reaper ExitHook;
  (void)ExitHook;
  Tls.Armed = true;
  return true;
}
