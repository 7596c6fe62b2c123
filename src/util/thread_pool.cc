#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <memory>

#include "util/parallel_trace.h"

namespace metablink::util {

namespace {
// Set for the lifetime of WorkerLoop; lets ParallelFor detect that it is
// being called from inside one of its own pool's workers.
thread_local const ThreadPool* t_worker_pool = nullptr;

// CPUs in the calling thread's affinity mask; hardware_concurrency() when
// the mask cannot be read (more CPUs than a cpu_set_t holds).
std::size_t AvailableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(1, CPU_COUNT(&mask));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = AvailableCpus();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::OnWorkerThread() const { return t_worker_pool == this; }

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  // Fine-grained chunking (4 per worker) evens out ragged per-item costs.
  ParallelForChunks(n, workers_.size() * 4,
                    [&fn](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) fn(i);
                    });
}

std::size_t ThreadPool::ParallelForChunks(
    std::size_t n, std::size_t max_chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return 0;
  if (max_chunks == 0) max_chunks = workers_.size();
  const std::size_t chunks = std::min(n, std::max<std::size_t>(1, max_chunks));
  ParallelTraceObserver* trace = GetParallelTraceObserver();
  if (chunks <= 1 || OnWorkerThread()) {
    if (trace != nullptr) {
      // Serial degrade still owns the whole index domain; report it so an
      // active WriteSetChecker sees a covering single-chunk partition.
      trace->OnRegionBegin(&fn, n, /*expect_cover=*/true,
                           "ThreadPool.ParallelForChunks.serial");
      trace->OnTaskWrite(&fn, 0, n);
      trace->OnRegionEnd(&fn);
    }
    fn(0, 0, n);
    return 1;
  }
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  // Each call waits on its own completion counter rather than the pool-wide
  // in_flight_ count, so unrelated Submit() traffic cannot wake it early or
  // make it wait longer than its own chunks.
  struct Completion {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = 0;
  };
  auto done = std::make_shared<Completion>();
  std::size_t used = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (c * chunk_size >= n) break;
    ++used;
  }
  done->remaining = used;
  if (trace != nullptr) {
    // The partition is fully determined before any task runs, so describe
    // it synchronously from the launching thread: the checker proves the
    // chunk arithmetic splits [0, n) into disjoint, covering ranges.
    trace->OnRegionBegin(done.get(), n, /*expect_cover=*/true,
                         "ThreadPool.ParallelForChunks");
    for (std::size_t c = 0; c < used; ++c) {
      trace->OnTaskWrite(done.get(), c * chunk_size,
                         std::min(n, c * chunk_size + chunk_size));
    }
    trace->OnRegionEnd(done.get());
  }
  for (std::size_t c = 0; c < used; ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    Submit([c, begin, end, &fn, done] {
      fn(c, begin, end);
      std::unique_lock<std::mutex> lock(done->mu);
      if (--done->remaining == 0) done->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done->mu);
  done->cv.wait(lock, [&done] { return done->remaining == 0; });
  return used;
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) break;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
  t_worker_pool = nullptr;
}

}  // namespace metablink::util
