// Deterministic fork-join thread pool for the simulation hot loops.
//
// The pool runs chunked index-range parallel-for jobs over a fixed set of
// worker threads (the calling thread participates as one lane).  Chunk
// boundaries depend only on `chunk_size`, never on the thread count or on
// scheduling, so any algorithm that writes per-index outputs (or one
// partial per chunk, folded in chunk order by the caller) produces results
// bit-identical to a serial run.  See DESIGN.md §9 "Threading model".
//
// Guarantees:
//   * body is invoked exactly once per chunk, with chunk-aligned ranges
//     [c*chunk_size, min(n, (c+1)*chunk_size)), for c = 0, 1, ...;
//   * exceptions thrown by the body are captured (first one wins), the
//     remaining chunks are abandoned, and the exception is rethrown on the
//     calling thread;
//   * a parallel_for issued from inside a running region (nested submit,
//     from a worker or the caller lane) runs inline on that thread —
//     never deadlocks, same chunking;
//   * with num_threads == 1 the pool spawns no workers and parallel_for
//     degenerates to the serial chunked loop, which is also what the free
//     parallel_for runs when it has no pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dgs::util {

/// Detected hardware lane count, never less than 1.  The only sanctioned
/// way to read std::thread::hardware_concurrency() outside this module
/// (dgslint R3 keeps raw threading primitives behind ThreadPool).
inline int hardware_concurrency() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// The most lanes a pool takes: SimulationOptions::validate() rejects more
/// and the front ends cap --threads here.
inline constexpr int kMaxThreads = 256;

/// Parallelism knobs threaded through SimulationOptions and the bench
/// `--threads` flag.
struct ParallelConfig {
  /// Total lanes (workers + calling thread), at most kMaxThreads.  1 =
  /// serial (today's behaviour, the default); 0 = hardware concurrency.
  int num_threads = 1;
  /// Iterations per chunk.  Fixed chunking keeps ordered reductions
  /// independent of the thread count; tune for task granularity only.
  int chunk_size = 16;
};

class ThreadPool {
 public:
  explicit ThreadPool(const ParallelConfig& config = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes: worker threads + the calling thread.
  int concurrency() const { return static_cast<int>(workers_.size()) + 1; }

  /// Invoked with a chunk-aligned [begin, end) subrange of [0, n).
  using RangeBody = std::function<void(std::int64_t, std::int64_t)>;

  /// Runs `body` over [0, n) in chunks; blocks until every chunk finished.
  /// Rethrows the first exception a chunk raised.  Safe to call again after
  /// an exception.  Must not be called concurrently from multiple external
  /// threads (one fork-join region at a time); nested calls from worker
  /// threads run inline.
  void parallel_for(std::int64_t n, const RangeBody& body);

 private:
  void worker_loop();
  /// Pulls chunks off the shared counter until the job is exhausted (or a
  /// chunk failed).  Runs on workers and on the calling thread alike.
  void run_chunks(const RangeBody& body, std::int64_t n);

  std::int64_t chunk_ = 16;

  // Job slot (one fork-join region at a time, guarded by job_mutex_).
  std::mutex job_mutex_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  const RangeBody* body_ = nullptr;   // guarded by wake_mutex_
  std::int64_t n_ = 0;                // guarded by wake_mutex_
  std::uint64_t job_seq_ = 0;         // guarded by wake_mutex_
  int remaining_ = 0;                 // workers yet to finish, wake_mutex_
  bool stop_ = false;                 // guarded by wake_mutex_
  std::atomic<std::int64_t> next_chunk_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;          // guarded by error_mutex_

  std::vector<std::thread> workers_;
};

/// True while this thread runs inside a fork-join region: on every pool
/// worker, and on the calling thread while it runs chunks of a
/// parallel_for at any lane count, inline runs included.  Read-only; the
/// metrics layer checks it to keep its writes on the driver thread
/// (DESIGN.md §10).
bool in_parallel_region();

/// `pool->parallel_for(n, body)`, or, when `pool` is null, the serial
/// chunked loop a 1-lane pool runs, in ParallelConfig's default chunks:
/// code that borrows an optional pool runs the same loop either way.
void parallel_for(ThreadPool* pool, std::int64_t n,
                  const ThreadPool::RangeBody& body);

}  // namespace dgs::util
