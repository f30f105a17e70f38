#ifndef DOTPROV_COMMON_THREAD_POOL_H_
#define DOTPROV_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace dot {

/// Fixed-size worker pool for the engines that fan out independent work
/// (SearchOptions::num_threads names them).
///
/// A pool of `num_threads` logical execution lanes: `num_threads - 1`
/// background workers plus the calling thread, which always participates in
/// ParallelFor. With num_threads == 1 the pool spawns no workers and every
/// API runs inline on the caller — the serial path with zero synchronization
/// beyond an uncontended mutex.
///
/// Tasks submitted from inside a pool task are legal (reentrant submit):
/// Submit only enqueues, and a task that must wait for a nested future can
/// drain the queue via RunPendingTask() instead of blocking, so the pool
/// cannot deadlock on its own work.
class ThreadPool {
 public:
  /// The pool-wide lane-count rule: `requested` <= 0 resolves to
  /// std::thread::hardware_concurrency(), floored at 1. Exposed so callers
  /// that size work before constructing a pool (e.g. the provisioner's
  /// outer fan-out) apply exactly the rule the constructor will.
  static int ResolveThreadCount(int requested);

  /// Creates the pool with ResolveThreadCount(num_threads) lanes.
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Logical lanes (workers + caller).
  int num_threads() const { return num_threads_; }

  /// Enqueues `fn` and returns a future for its result. Exceptions thrown
  /// by `fn` propagate through the future.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      // Single-lane pool: the caller is the only lane, so run inline.
      (*task)();
      return future;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// Pops and runs one queued task on the calling thread. Returns false if
  /// the queue was empty. Lets a task waiting on a nested future make
  /// progress instead of deadlocking the pool.
  bool RunPendingTask();

  /// Runs fn(i) for every i in [begin, end), partitioned statically across
  /// the pool's lanes; the calling thread works too. Blocks until all
  /// iterations finish. The first exception thrown by any iteration is
  /// rethrown on the caller.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t)>& fn);

  /// Chunked variant of ParallelFor: workers claim `chunk` consecutive
  /// indices per atomic grab instead of one. For fan-outs of very small
  /// iterations — the fleet planner prices 1e4 tenants where each argmin is
  /// microseconds, and one atomic RMW per index would rival the work —
  /// while keeping the load balancing static sharding gives up. chunk <= 1
  /// degenerates to ParallelFor. Same contract: every index runs exactly
  /// once, completion blocks, the first exception rethrows; iteration
  /// *order* is nondeterministic, so determinism-sensitive callers write
  /// results into distinct slots and reduce in fixed order.
  void ParallelForChunked(int64_t begin, int64_t end, int64_t chunk,
                          const std::function<void(int64_t)>& fn);

  /// Static-shard variant: splits [begin, end) into `num_shards` contiguous
  /// ranges and runs fn(shard, shard_begin, shard_end) for each. Shard
  /// boundaries depend only on (begin, end, num_shards), never on thread
  /// count or scheduling, which is what makes sharded reductions
  /// deterministic. Blocks until all shards finish; rethrows the first
  /// exception.
  void ParallelForShards(
      int64_t begin, int64_t end, int num_shards,
      const std::function<void(int shard, int64_t shard_begin,
                               int64_t shard_end)>& fn);

 private:
  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool shutdown_ = false;
};

}  // namespace dot

#endif  // DOTPROV_COMMON_THREAD_POOL_H_
