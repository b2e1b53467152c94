#include "src/util/thread_pool.h"

#include <algorithm>

#include "src/util/check.h"

namespace dgs::util {

namespace {
// Set while a thread is executing inside a fork-join region: for the
// lifetime of every worker thread, and on the calling thread while it runs
// chunks, on the pool or inline.  A parallel_for issued from such a thread
// (nested submit) must run inline — a worker blocking on a job that needs
// that same worker, or a caller re-locking the region mutex it already
// holds, would deadlock.
thread_local bool tls_in_parallel_region = false;

// Same chunk-aligned invocations as the parallel path, so per-chunk
// consumers (reduce_ordered) see identical ranges at any thread count.
// The body runs inside a region at every lane count, so the metrics
// layer's driver-thread check sees a 1-lane run too; the caller's flag is
// restored afterwards (also when the body throws), so an inline nested
// call leaves its enclosing region marked.
void run_serial(std::int64_t n, std::int64_t chunk,
                const ThreadPool::RangeBody& body) {
  struct RegionMark {
    bool outer = tls_in_parallel_region;
    RegionMark() { tls_in_parallel_region = true; }
    ~RegionMark() { tls_in_parallel_region = outer; }
  } mark;
  for (std::int64_t begin = 0; begin < n; begin += chunk) {
    body(begin, std::min<std::int64_t>(n, begin + chunk));
  }
}
}  // namespace

ThreadPool::ThreadPool(const ParallelConfig& config) {
  DGS_ENSURE_GE(config.num_threads, 0);
  DGS_ENSURE_GT(config.chunk_size, 0);
  chunk_ = config.chunk_size;
  int lanes = config.num_threads;
  if (lanes == 0) {
    lanes = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(static_cast<std::size_t>(lanes - 1));
  for (int i = 0; i < lanes - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_chunks(const RangeBody& body, std::int64_t n) {
  for (;;) {
    const std::int64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t begin = c * chunk_;
    if (begin >= n) return;
    if (failed_.load(std::memory_order_acquire)) return;
    try {
      body(begin, std::min<std::int64_t>(n, begin + chunk_));
    } catch (...) {
      std::lock_guard<std::mutex> lk(error_mutex_);
      if (error_ == nullptr) error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
    }
  }
}

void ThreadPool::parallel_for(std::int64_t n, const RangeBody& body) {
  if (n <= 0) return;
  if (workers_.empty() || tls_in_parallel_region || n <= chunk_) {
    run_serial(n, chunk_, body);
    return;
  }

  std::lock_guard<std::mutex> region(job_mutex_);
  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    body_ = &body;
    n_ = n;
    next_chunk_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    remaining_ = static_cast<int>(workers_.size());
    ++job_seq_;
  }
  wake_cv_.notify_all();

  // The calling thread is a lane too; mark it so any nested submit from
  // the body runs inline instead of re-entering the region.
  tls_in_parallel_region = true;
  run_chunks(body, n);
  tls_in_parallel_region = false;

  std::unique_lock<std::mutex> lk(wake_mutex_);
  done_cv_.wait(lk, [this] { return remaining_ == 0; });
  body_ = nullptr;
  if (failed_.load(std::memory_order_acquire)) {
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> elk(error_mutex_);
      err = error_;
      error_ = nullptr;
    }
    lk.unlock();
    if (err != nullptr) std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  tls_in_parallel_region = true;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(wake_mutex_);
  for (;;) {
    wake_cv_.wait(lk, [&] { return stop_ || job_seq_ != seen; });
    if (stop_) return;
    seen = job_seq_;
    const RangeBody* body = body_;
    const std::int64_t n = n_;
    lk.unlock();
    run_chunks(*body, n);
    lk.lock();
    if (--remaining_ == 0) done_cv_.notify_one();
  }
}

bool in_parallel_region() { return tls_in_parallel_region; }

void parallel_for(ThreadPool* pool, std::int64_t n,
                  const ThreadPool::RangeBody& body) {
  if (pool != nullptr) {
    pool->parallel_for(n, body);
  } else {
    run_serial(n, ParallelConfig{}.chunk_size, body);
  }
}

}  // namespace dgs::util
