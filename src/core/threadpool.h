// Fixed-size thread pool with a deterministic, statically chunked
// parallel_for — the substrate behind the row-parallel codecs, the blocked
// GEMM kernels, and the parallel DDP worker loop.
//
// Determinism contract: parallel_for partitions [0, n) into contiguous
// chunks whose boundaries depend only on (n, grain, thread_count) — never on
// scheduling — and callers arrange the work so every output slot is written
// by exactly one chunk with a fixed intra-chunk order. Under that
// discipline the results are bit-identical for any thread count, which is
// what lets the RHT codec (whose rows are keyed independently by
// `StreamKey`) and the GEMM kernels (one output row per chunk) parallelize
// without changing a single numeric result. Tests enforce the contract for
// pool sizes 1, 2, and 8.
//
// The pool is intentionally small: static chunking over an atomic chunk
// cursor, no work stealing, no futures. The calling thread participates in
// the work, so a pool of size T uses T-1 background workers. Nested
// parallel_for calls from inside a worker run inline (sequentially) on that
// worker — the DDP trainer parallelizes over model replicas while each
// replica's GEMMs still call parallel_for.
//
// Dispatch overhead: jobs are passed as a FunctionRef (no per-call heap
// allocation), published through an atomic sequence number, and completion
// is a plain atomic countdown latch — workers and the caller spin briefly
// before falling back to a condition variable, so short jobs never pay a
// futex round trip.
#pragma once

#include <cstddef>

#include "core/function_ref.h"

namespace trimgrad::core {

/// Chunk callback: fn(begin, end) over a contiguous index range.
using ParallelForFn = FunctionRef<void(std::size_t, std::size_t)>;

class ThreadPool {
 public:
  /// A pool of `threads` total workers, *including* the calling thread;
  /// `threads <= 1` creates no background threads and parallel_for runs
  /// everything inline.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Most workers a pool may be asked for by outside input (a spec's
  /// threads key, TRIMGRAD_THREADS).
  static constexpr std::size_t kMaxThreads = 256;

  /// Total worker count including the caller.
  std::size_t thread_count() const noexcept;

  /// Run fn(begin, end) over a static partition of [0, n) into contiguous
  /// chunks of at least `grain` indices each. Blocks until all chunks are
  /// done (so fn only has to outlive this call). Safe to call from inside a
  /// pool worker (runs inline there).
  void parallel_for(std::size_t n, std::size_t grain, ParallelForFn fn);

  /// Process-wide pool used by the codec/GEMM/trainer hot paths. Sized on
  /// first use from the TRIMGRAD_THREADS environment variable when it holds
  /// 1..kMaxThreads, else from std::thread::hardware_concurrency().
  static ThreadPool& global();

  /// Replace the global pool with one of `threads` workers. Callers must
  /// ensure no parallel work is in flight (intended for test/bench setup).
  static void set_global_threads(std::size_t threads);

 private:
  struct Impl;
  Impl* impl_;
};

/// Shorthand for ThreadPool::global().parallel_for(...).
void parallel_for(std::size_t n, std::size_t grain, ParallelForFn fn);

}  // namespace trimgrad::core
