// Minimal lazy coroutine task type used for guest-program execution.
//
// Guest programs (simulated threads) are written as C++20 coroutines. Every
// simulated memory access or compute quantum is a *leaf awaitable* that
// suspends the whole coroutine stack and hands control back to the simulation
// kernel, which resumes the stack at a later cycle. Nested guest functions
// return Task<T> and are composed with co_await using symmetric transfer, so
// arbitrarily deep guest call chains suspend/resume as a unit.
//
// Exceptions thrown inside a task (guest bugs, e.g. an abort with no retry
// loop to take it) propagate outward through the awaiting chain exactly like normal C++
// exceptions. Transaction aborts never do: the kernel resumes the retry
// loop's frame directly and the abandoned chain is destroyed by its Task
// handles (docs/performance.md).
//
// TOOLCHAIN WARNING: with GCC 12, a co_await inside a condition expression
// whose controlled branch also suspends is miscompiled (the frame's resume
// index is corrupted and the first resume silently destroys the coroutine).
// Guest code must hoist awaited values into named locals before branching on
// them. tests/test_compiler_workaround.cpp pins the working patterns.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/frame_arena.hpp"

namespace asfsim {

template <typename T>
class Task;

namespace detail {

template <typename T>
struct TaskPromiseBase {
  std::coroutine_handle<> continuation;  // resumed when this task finishes
  std::exception_ptr error;

  // Route every coroutine frame through the thread-local FrameArena instead
  // of the global allocator — frames of the same guest function recycle a
  // freelist block across transaction retries (docs/performance.md). Only
  // the sized delete is declared, so the compiler's frame deallocation is
  // guaranteed to carry the size back to the right bucket.
  static void* operator new(std::size_t n) { return FrameArena::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FrameArena::deallocate(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { error = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started coroutine returning T. Move-only; owns the frame.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::TaskPromiseBase<T> {
    T value{};
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value = std::forward<U>(v);
    }
  };

  Task() = default;
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }
  [[nodiscard]] std::coroutine_handle<> raw_handle() const { return handle_; }

  /// Rethrows the stored exception, if the task ended with one.
  void rethrow_if_error() const {
    if (handle_ && handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }

  /// Result access after completion (root-task use by the kernel).
  [[nodiscard]] T& result() {
    rethrow_if_error();
    return handle_.promise().value;
  }

  // Awaiter so that Task<T> can be co_awaited from another coroutine.
  struct Awaiter {
    std::coroutine_handle<promise_type> child;
    bool await_ready() const noexcept { return !child || child.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
      child.promise().continuation = parent;
      return child;  // symmetric transfer into the child
    }
    T await_resume() {
      if (child.promise().error) std::rethrow_exception(child.promise().error);
      return std::move(child.promise().value);
    }
  };
  Awaiter operator co_await() const noexcept { return Awaiter{handle_}; }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::TaskPromiseBase<void> {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Task() = default;
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }
  [[nodiscard]] std::coroutine_handle<> raw_handle() const { return handle_; }

  void rethrow_if_error() const {
    if (handle_ && handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }

  struct Awaiter {
    std::coroutine_handle<promise_type> child;
    bool await_ready() const noexcept { return !child || child.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
      child.promise().continuation = parent;
      return child;
    }
    void await_resume() {
      if (child.promise().error) std::rethrow_exception(child.promise().error);
    }
  };
  Awaiter operator co_await() const noexcept { return Awaiter{handle_}; }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace asfsim
