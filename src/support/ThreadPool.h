//===- support/ThreadPool.h - Reusable fixed-size worker pool ------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool in the LLVM ThreadPool mold: jobs are
/// queued, workers drain the queue, and async() hands back a std::future.
/// Workers start on the first async(), so a pool that is built but never
/// handed a job (a merge the aggregate cache answers, a fold too small to
/// split) costs no thread.
/// The profile store's parallel merge tree runs on it; consumers that need
/// deterministic output must make their reduction order-independent (exact
/// integer arithmetic + canonical final ordering) rather than rely on any
/// scheduling property of the pool — workers pick jobs strictly FIFO but
/// finish them in any order.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_THREADPOOL_H
#define GPROF_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gprof {

/// Fixed-size worker pool.  Destruction waits for every queued job.
class ThreadPool {
public:
  /// A pool of \p NumThreads workers, spawned by the first async(); 0
  /// means one per hardware thread (at least one).
  explicit ThreadPool(unsigned NumThreads = 0);

  /// Drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads, whether or not they have started.
  unsigned size() const { return Width; }

  /// Queues \p Fn and returns a future for its result.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> async(Fn &&F) {
    using Result = std::invoke_result_t<Fn>;
    auto Task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(F));
    std::future<Result> Future = Task->get_future();
    enqueue([Task] { (*Task)(); });
    return Future;
  }

  /// Blocks until every job queued so far has finished.
  void wait();

private:
  void enqueue(std::function<void()> Job);
  void workerLoop(unsigned WorkerIndex);

  unsigned Width;
  /// Empty until the first job is queued.
  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllIdle;
  unsigned ActiveJobs = 0;
  bool ShuttingDown = false;
};

} // namespace gprof

#endif // GPROF_SUPPORT_THREADPOOL_H
