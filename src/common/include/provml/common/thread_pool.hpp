// Fixed-size worker pool with a shared task queue. The sweep engine builds
// one per run_sweep() call to train the scaling-study grid's cells in
// parallel; the pool lives exactly as long as that call.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace provml::common {

class ThreadPool {
 public:
  /// `workers` == 0 selects hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned workers = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return result;
  }

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace provml::common
