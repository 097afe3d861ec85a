// Threading primitives for the hacd service layer (src/server).
//
// BoundedMpscQueue<T> — a mutex+condvar multi-producer queue with a hard capacity:
// producers get an immediate false from TryPush when the queue is full (admission
// control rejects instead of blocking, so overload is explicit), consumers block in
// PopFor with a timeout so they can notice shutdown. "SC" is by convention, not
// enforcement: the service drains its write queue from one thread; the read queue is
// drained by the pool, where multi-consumer popping is just as safe.
//
// ThreadPool — N workers running closures. Deliberately minimal: submission never
// blocks the caller (unbounded job list; the service bounds admission upstream with
// its request queues), Stop() drains nothing — pending jobs still run before the
// workers exit, so a stopping service completes every admitted request.
#ifndef HAC_SUPPORT_THREAD_POOL_H_
#define HAC_SUPPORT_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace hac {

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(size_t capacity) : capacity_(capacity) {}

  // Returns false without blocking when the queue is full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  // Blocks up to `wait` for an item. Empty optional: timeout, or closed-and-drained.
  std::optional<T> PopFor(std::chrono::milliseconds wait) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait_for(lock, wait, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Non-blocking pop, used by the writer to drain a batch group.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // After Close, pushes fail; pops still drain what was admitted.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a job. Returns false only after Stop().
  bool Submit(std::function<void()> job);

  // Stops accepting jobs, runs everything already queued, joins the workers.
  // Idempotent; also called by the destructor.
  void Stop();

  size_t ThreadCount() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> jobs_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace hac

#endif  // HAC_SUPPORT_THREAD_POOL_H_
