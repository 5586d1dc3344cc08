//===- sim/Task.h - Coroutine task type -------------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coroutine task type used for all simulated activities.  A Task<T> is
/// a *lazy* coroutine: creating it does not run any code.  It starts either
/// when a parent coroutine `co_await`s it (symmetric transfer) or when it is
/// handed to Simulator::spawn, which detaches it and resumes it from the
/// event loop.
///
/// Ownership rules:
///  - An un-started, un-detached Task owns its frame and destroys it in the
///    Task destructor.
///  - Awaiting a Task transfers control; the frame is destroyed by the
///    awaiting Task object's destructor after completion.
///  - A detached (spawned) Task frame destroys itself at final suspend and
///    unlinks from the simulator's live list.
///
/// Frames are recycled: every call path nests several Tasks, so frame
/// allocation would otherwise dominate a fine-grained simulated call.  See
/// detail::FramePool.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_TASK_H
#define PARCS_SIM_TASK_H

#include <cassert>
#include <concepts>
#include <coroutine>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>

// AddressSanitizer must see every frame's allocation and release: a pooled
// frame resumed after free would read a recycled block instead of faulting.
// Whether the pool is on follows from that check alone.
#if defined(__SANITIZE_ADDRESS__)
#define PARCS_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARCS_FRAME_POOL 0
#else
#define PARCS_FRAME_POOL 1
#endif
#else
#define PARCS_FRAME_POOL 1
#endif

namespace parcs::sim {

namespace detail {

/// Recycles coroutine frames through per-thread free lists, one per 64-byte
/// size class -- the frame-side counterpart of the event kernel's EventNode
/// free list.  In steady state each new frame pops the block a finished
/// frame of the same class pushed, so a call path allocates no frames.
///
///  - The lists are thread-local: simulators on different threads never
///    share one and nothing locks.  A frame freed on another thread than
///    the one that allocated it joins the freeing thread's list (all blocks
///    of a class are alike).
///  - Frames larger than MaxBytes go to the global allocator.
///  - The lists are plain constant-initialised data, so the fast path is a
///    TLS pointer pop or push with no initialisation guard.  A thread's
///    first recycled frame arms a thread-exit hook that returns the lists'
///    blocks to the global allocator; frames freed after it has run go
///    straight to the global allocator too.
///  - Under AddressSanitizer the pool is compiled out (Enabled is false)
///    and every frame is a plain global allocation.
class FramePool {
public:
  static constexpr bool Enabled = PARCS_FRAME_POOL;
  static constexpr size_t ClassBytes = 64;
  static constexpr size_t Classes = 32;
  static constexpr size_t MaxBytes = ClassBytes * Classes;

  static void *allocate(size_t Size) {
    if (!Enabled || Size > MaxBytes)
      return ::operator new(Size);
    size_t Class = classOf(Size);
    if (void *Frame = Tls.Free[Class]) [[likely]] {
      Tls.Free[Class] = *static_cast<void **>(Frame);
      return Frame;
    }
    return ::operator new(blockBytes(Class));
  }

  static void deallocate(void *Frame, size_t Size) noexcept {
    if (!Enabled || Size > MaxBytes) {
      ::operator delete(Frame, Size);
      return;
    }
    size_t Class = classOf(Size);
    if (!Tls.Armed && !arm()) [[unlikely]] {
      ::operator delete(Frame, blockBytes(Class));
      return;
    }
    *static_cast<void **>(Frame) = Tls.Free[Class];
    Tls.Free[Class] = Frame;
  }

private:
  struct Lists {
    void *Free[Classes];
    /// The thread-exit hook is registered.
    bool Armed;
    /// The thread-exit hook has run; recycling is over for this thread.
    bool Retired;
  };

  static size_t classOf(size_t Size) { return (Size - 1) / ClassBytes; }
  static size_t blockBytes(size_t Class) { return (Class + 1) * ClassBytes; }

  /// Registers the thread-exit hook; false once it has run.
  static bool arm() noexcept;

  static constinit inline thread_local Lists Tls{};
};

/// Intrusive link through a detached frame's promise: the simulator keeps
/// its live detached frames on a circular list in spawn order, with no
/// per-spawn allocation.
struct DetachedLink {
  DetachedLink *Prev = nullptr;
  DetachedLink *Next = nullptr;

  bool linked() const { return Next != nullptr; }

  /// Links this node in just before \p Pos (at the tail when \p Pos is the
  /// list's sentinel).
  void linkBefore(DetachedLink &Pos) {
    Prev = Pos.Prev;
    Next = &Pos;
    Pos.Prev->Next = this;
    Pos.Prev = this;
  }

  void unlink() {
    Prev->Next = Next;
    Next->Prev = Prev;
    Prev = Next = nullptr;
  }
};

/// State shared by all Task promises, independent of the result type.
struct PromiseBase : DetachedLink {
  /// Coroutine to resume when this task completes (the awaiting parent).
  std::coroutine_handle<> Continuation;

  static void *operator new(size_t Size) { return FramePool::allocate(Size); }
  static void operator delete(void *Frame, size_t Size) noexcept {
    FramePool::deallocate(Frame, Size);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept {
    // The library is exception-free by policy; anything reaching here is a
    // bug in user code run inside the simulation.
    std::fprintf(stderr, "parcs: exception escaped a simulated task\n");
    std::abort();
  }

  /// Final awaiter: resume the continuation if any; unlink from the
  /// simulator's live list and self-destroy when detached.
  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }

    template <typename PromiseT>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<PromiseT> Handle) noexcept {
      PromiseBase &P = Handle.promise();
      if (P.Continuation)
        return P.Continuation;
      if (P.linked()) {
        P.unlink();
        Handle.destroy();
      }
      return std::noop_coroutine();
    }

    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
};

} // namespace detail

/// A lazy coroutine returning T (default void).  Move-only.
template <typename T = void> class [[nodiscard]] Task {
public:
  using value_type = T;

  struct promise_type : detail::PromiseBase {
    std::optional<T> Result;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    /// Builds Result from the co_return operand itself, so a returned
    /// local moves once on its way into the promise.  The constraint keeps
    /// co_return to implicit conversions.
    template <typename U = T>
      requires std::convertible_to<U, T>
    void return_value(U &&Value) {
      Result.emplace(std::forward<U>(Value));
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> Handle) : Handle(Handle) {}
  Task(Task &&Other) noexcept : Handle(std::exchange(Other.Handle, nullptr)) {}
  Task &operator=(Task &&Other) noexcept {
    if (this != &Other) {
      destroy();
      Handle = std::exchange(Other.Handle, nullptr);
    }
    return *this;
  }
  Task(const Task &) = delete;
  Task &operator=(const Task &) = delete;
  ~Task() { destroy(); }

  bool valid() const { return Handle != nullptr; }
  bool done() const { return Handle && Handle.done(); }

  /// Awaiting a task starts it and suspends the parent until completion;
  /// resuming yields the co_returned value.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> Child;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<>
      await_suspend(std::coroutine_handle<> Parent) noexcept {
        Child.promise().Continuation = Parent;
        return Child; // Symmetric transfer: start the child now.
      }
      T await_resume() {
        assert(Child.promise().Result && "task finished without a value");
        return std::move(*Child.promise().Result);
      }
    };
    assert(Handle && "awaiting an empty task");
    return Awaiter{Handle};
  }

private:
  friend class Simulator;

  /// Releases ownership of the frame (used by Simulator::spawn).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(Handle, nullptr);
  }

  void destroy() {
    if (Handle) {
      Handle.destroy();
      Handle = nullptr;
    }
  }

  std::coroutine_handle<promise_type> Handle;
};

/// Specialisation for tasks that produce no value.
template <> class [[nodiscard]] Task<void> {
public:
  using value_type = void;

  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> Handle) : Handle(Handle) {}
  Task(Task &&Other) noexcept : Handle(std::exchange(Other.Handle, nullptr)) {}
  Task &operator=(Task &&Other) noexcept {
    if (this != &Other) {
      destroy();
      Handle = std::exchange(Other.Handle, nullptr);
    }
    return *this;
  }
  Task(const Task &) = delete;
  Task &operator=(const Task &) = delete;
  ~Task() { destroy(); }

  bool valid() const { return Handle != nullptr; }
  bool done() const { return Handle && Handle.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> Child;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<>
      await_suspend(std::coroutine_handle<> Parent) noexcept {
        Child.promise().Continuation = Parent;
        return Child;
      }
      void await_resume() {}
    };
    assert(Handle && "awaiting an empty task");
    return Awaiter{Handle};
  }

private:
  friend class Simulator;

  std::coroutine_handle<promise_type> release() {
    return std::exchange(Handle, nullptr);
  }

  void destroy() {
    if (Handle) {
      Handle.destroy();
      Handle = nullptr;
    }
  }

  std::coroutine_handle<promise_type> Handle;
};

} // namespace parcs::sim

#endif // PARCS_SIM_TASK_H
