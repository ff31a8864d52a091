// thread_pool.h — the parallel-execution runtime underneath the flow.
//
// A small work-stealing thread pool plus structured-parallelism primitives
// (`parallel_for`, `parallel_invoke`) built on C++17 threads only — no
// external dependencies.  Three properties shape the design:
//
//   * **Determinism by construction.**  The primitives never introduce
//     nondeterminism themselves: `parallel_for` partitions a fixed index
//     range; which thread runs which chunk varies, but callers that write
//     only to per-index slots (the rule everywhere in this repo) get
//     bit-identical results at any thread count.  `threads <= 1` executes
//     the plain serial loop — exactly today's code path.
//
//   * **Nesting without deadlock.**  A pool task may itself call
//     `parallel_for` (a sweep point routes its two wafer sides
//     concurrently).  Waiters are cooperative: while a `parallel_for`
//     caller waits for its helpers it executes other queued pool tasks, and
//     the caller always participates in its own index range, so progress is
//     guaranteed even when every worker is busy.
//
//   * **Exceptions propagate.**  The first exception thrown by any chunk is
//     captured, remaining chunks are abandoned, and the exception rethrows
//     on the calling thread once all helpers have stopped.
//
// Thread-count resolution (used by `flow::FlowConfig::threads` and the
// benches): see resolve_threads; FFET_THREADS is decoded by obs/env.h.
//
// Telemetry (src/obs): each worker registers a named trace lane
// ("pool.worker.N") and every executed task is wrapped in a "pool.task"
// span, so an FFET_TRACE capture shows realized parallelism per lane.
// Metrics record submissions, executed tasks, steals, and the maximum
// queue depth; all of it is branch-on-atomic-flag and off by default.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/env.h"

namespace ffet::runtime {

/// Effective thread count: `requested` if positive, else `env.threads`
/// (FFET_THREADS) if set, else hardware_concurrency() (min 1).
int resolve_threads(int requested = 0, const obs::Env& env = obs::env());

/// Work-stealing pool: each worker owns a deque; submissions round-robin
/// across workers; an idle worker steals from the back of a peer's deque.
/// The pool grows on demand (`ensure_workers`) and never shrinks; the
/// destructor drains every queued task before joining.
class ThreadPool {
 public:
  /// Starts `workers` worker threads (0 = start none; grow on demand).
  explicit ThreadPool(int workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const;

  /// Grow to at least `count` workers (no-op if already larger).
  void ensure_workers(int count);

  /// Enqueue a task.  With zero workers the task runs inline.  Tasks must
  /// not throw (parallel_for wraps user code; raw submissions are on the
  /// caller).
  void submit(std::function<void()> task);

  /// Run one queued task on the calling thread if any is available.
  /// Returns false when every deque is empty.  This is what lets waiting
  /// `parallel_for` callers help instead of blocking.
  bool try_run_one();

  /// The process-wide pool shared by flow sweeps and intra-flow stages.
  static ThreadPool& global();

 private:
  struct Slot {
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t index);
  /// Pop own front, else steal a peer's back.  Requires m_ held.
  std::function<void()> take_locked(std::size_t home);

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Slot>> slots_;  // stable across growth
  std::vector<std::thread> threads_;
  std::size_t rr_ = 0;  ///< round-robin submission cursor
  bool stop_ = false;
};

namespace detail {

/// Shared state of one parallel_for invocation.
struct ForState {
  std::atomic<std::size_t> next{0};  ///< next unclaimed chunk start
  std::atomic<int> helpers{0};       ///< submitted helper tasks still running
  std::atomic<bool> abort{false};
  std::mutex m;
  std::condition_variable done;
  std::exception_ptr error;  // first exception; guarded by m
};

}  // namespace detail

/// Run `body(i)` for every i in [0, n).  Chunks of `grain` indices are
/// claimed atomically by the caller and up to `threads - 1` pool helpers;
/// per-index work must only touch state owned by that index.  `threads <= 1`
/// (after resolve_threads) or `n <= grain` runs the plain serial loop.
/// `grain == 0` picks a chunk size targeting ~4 chunks per thread.
template <class F>
void parallel_for(std::size_t n, F&& body, int threads = 0,
                  std::size_t grain = 1) {
  if (n == 0) return;
  const int k = resolve_threads(threads);
  if (grain == 0) {
    grain = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(k) * 4));
  }
  if (k <= 1 || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto state = std::make_shared<detail::ForState>();
  auto run_chunks = [state, n, grain, &body] {
    while (!state->abort.load(std::memory_order_relaxed)) {
      const std::size_t lo = state->next.fetch_add(grain);
      if (lo >= n) break;
      const std::size_t hi = std::min(n, lo + grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(state->m);
        if (!state->error) state->error = std::current_exception();
        state->abort.store(true, std::memory_order_relaxed);
      }
    }
  };

  ThreadPool& pool = ThreadPool::global();
  const std::size_t chunks = (n + grain - 1) / grain;
  const int helpers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(k - 1), chunks - 1));
  pool.ensure_workers(helpers);
  state->helpers.store(helpers);
  for (int h = 0; h < helpers; ++h) {
    pool.submit([state, run_chunks] {
      run_chunks();
      if (state->helpers.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lk(state->m);
        state->done.notify_all();
      }
    });
  }

  run_chunks();  // the caller always works its own loop

  // Cooperative wait: execute other pool tasks (possibly a nested
  // parallel_for's helpers) until our helpers finish.
  while (state->helpers.load() > 0) {
    if (pool.try_run_one()) continue;
    std::unique_lock<std::mutex> lk(state->m);
    state->done.wait_for(lk, std::chrono::milliseconds(1),
                         [&] { return state->helpers.load() == 0; });
  }
  {
    std::lock_guard<std::mutex> lk(state->m);
    if (state->error) std::rethrow_exception(state->error);
  }
}

/// Run every callable concurrently; returns when all have finished.
/// `threads <= 1` runs them in argument order on the calling thread.
template <class... Fs>
void parallel_invoke(int threads, Fs&&... fs) {
  std::function<void()> fns[] = {std::function<void()>(std::forward<Fs>(fs))...};
  constexpr std::size_t n = sizeof...(Fs);
  parallel_for(n, [&](std::size_t i) { fns[i](); }, threads, 1);
}

}  // namespace ffet::runtime
