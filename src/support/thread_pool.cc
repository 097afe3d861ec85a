#include "src/support/thread_pool.h"

namespace hac {

ThreadPool::ThreadPool(size_t num_threads) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Stop(); }

bool ThreadPool::Submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return false;
    }
    jobs_.push_back(std::move(job));
  }
  ready_.notify_one();
  return true;
}

void ThreadPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Second caller (destructor after an explicit Stop): threads are joined already.
      return;
    }
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [this] { return !jobs_.empty() || stopping_; });
      if (jobs_.empty()) {
        return;  // stopping and drained
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

}  // namespace hac
