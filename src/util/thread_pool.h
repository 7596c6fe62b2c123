#ifndef METABLINK_UTIL_THREAD_POOL_H_
#define METABLINK_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace metablink::util {

/// Fixed-size worker pool. Used by retrieval, batched encoding, and the
/// tensor kernels to parallelize embarrassingly-parallel loops on CPU.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means one per CPU the calling
  /// thread may run on (its affinity mask, so a pinned or cgroup-limited
  /// process does not oversubscribe).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  std::size_t num_threads() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's own workers.
  bool OnWorkerThread() const;

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Work is chunked to limit queue overhead. Calling this from one of the
  /// pool's own workers (nested parallelism) degrades to a plain serial
  /// loop instead of deadlocking: the blocked worker would otherwise occupy
  /// the very slot its subtasks need.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Partitions [0, n) into at most `max_chunks` contiguous ranges
  /// (0 means one per worker) and runs fn(chunk, begin, end) for each
  /// across the pool, waiting for completion. Chunk ids are dense in
  /// [0, chunks), so callers can key per-thread scratch buffers by chunk.
  /// Returns the number of chunks used. Degrades to a single serial chunk
  /// when called from one of the pool's own workers (see ParallelFor).
  std::size_t ParallelForChunks(
      std::size_t n, std::size_t max_chunks,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace metablink::util

#endif  // METABLINK_UTIL_THREAD_POOL_H_
