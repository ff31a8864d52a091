#include "runtime/thread_pool.h"

#include "obs/obs.h"

namespace ffet::runtime {

int resolve_threads(int requested, const obs::Env& env) {
  if (requested > 0) return requested;
  if (env.threads > 0) return env.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int workers) {
  if (workers > 0) ensure_workers(workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::workers() const {
  std::lock_guard<std::mutex> lk(m_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::ensure_workers(int count) {
  std::lock_guard<std::mutex> lk(m_);
  while (static_cast<int>(threads_.size()) < count) {
    const std::size_t index = threads_.size();
    slots_.push_back(std::make_unique<Slot>());
    threads_.emplace_back([this, index] { worker_loop(index); });
  }
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    if (!slots_.empty()) {
      Slot& slot = *slots_[rr_++ % slots_.size()];
      slot.tasks.push_back(std::move(task));
      depth = slot.tasks.size();
      task = nullptr;
    }
  }
  FFET_METRIC_ADD("pool.submitted", 1);
  FFET_METRIC_GAUGE_MAX("pool.queue_depth.max", depth);
  if (task) {
    task();  // zero-worker pool: run inline
    return;
  }
  cv_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lk(m_);
    for (const auto& slot : slots_) {
      if (!slot->tasks.empty()) {
        task = std::move(slot->tasks.back());
        slot->tasks.pop_back();
        break;
      }
    }
  }
  if (!task) return false;
  {
    // A cooperative waiter lending its thread to the pool: show the task on
    // the caller's lane so borrowed time is attributed where it ran.
    FFET_TRACE_SCOPE("pool.task");
    FFET_METRIC_ADD("pool.tasks", 1);
    task();
  }
  return true;
}

std::function<void()> ThreadPool::take_locked(std::size_t home) {
  Slot& own = *slots_[home];
  if (!own.tasks.empty()) {
    std::function<void()> t = std::move(own.tasks.front());
    own.tasks.pop_front();
    return t;
  }
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    Slot& peer = *slots_[(home + i) % slots_.size()];
    if (!peer.tasks.empty()) {
      std::function<void()> t = std::move(peer.tasks.back());
      peer.tasks.pop_back();
      FFET_METRIC_ADD("pool.steals", 1);
      return t;
    }
  }
  return nullptr;
}

void ThreadPool::worker_loop(std::size_t index) {
  obs::set_thread_name("pool.worker." + std::to_string(index));
  std::unique_lock<std::mutex> lk(m_);
  while (true) {
    std::function<void()> task = take_locked(index);
    if (task) {
      lk.unlock();
      {
        FFET_TRACE_SCOPE("pool.task");
        FFET_METRIC_ADD("pool.tasks", 1);
        task();
      }
      task = nullptr;
      lk.lock();
      continue;
    }
    if (stop_) return;  // queues drained and shutdown requested
    cv_.wait(lk);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);  // grows on first parallel call
  return pool;
}

}  // namespace ffet::runtime
