#include "core/threadpool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/number_text.h"

namespace trimgrad::core {

namespace {

/// Set while a pool worker executes chunks, so nested parallel_for calls
/// (e.g. GEMMs inside a parallelized trainer round) degrade to inline
/// execution instead of deadlocking on the pool.
thread_local bool tls_in_pool_worker = false;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("TRIMGRAD_THREADS")) {
    const auto v = parse_uint(env, ThreadPool::kMaxThreads);
    if (v.has_value() && *v >= 1) return static_cast<std::size_t>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin budgets before falling back to the condition variables. Idle
/// workers spin this long for the next job (covers back-to-back
/// parallel_for bursts, e.g. per-row codec loops); the caller spins for
/// stragglers after finishing its own chunks.
constexpr int kIdleSpins = 1 << 12;
constexpr int kDoneSpins = 1 << 14;

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  std::mutex mu;
  std::condition_variable cv_start;
  std::condition_variable cv_done;

  // Job publication. The plain fields are written first, then job_seq is
  // store-released (under mu, so a worker between its predicate check and
  // its sleep cannot miss the bump); workers acquire-load job_seq — either
  // in their spin loop or inside cv_start's predicate — and the fields are
  // visible by release/acquire ordering. One job at a time (busy flag), so
  // the fields are stable until every worker has finished.
  std::atomic<std::uint64_t> job_seq{0};
  ParallelForFn job_fn;
  std::size_t job_n = 0;
  std::size_t job_chunks = 0;
  std::atomic<bool> stop{false};

  std::atomic<std::size_t> next_chunk{0};

  // Completion latch: workers that have not finished the current job. The
  // last worker down notifies cv_done (taking mu only for the handoff);
  // the caller usually observes 0 in its spin and never touches mu.
  std::atomic<std::size_t> pending{0};

  /// True while a job is in flight. The pool runs one job at a time, so any
  /// parallel_for that arrives while busy — a nested call from the caller's
  /// own chunk (the caller participates but is not a pool worker, so the
  /// tls flag does not cover it), or a second thread sharing the global
  /// pool — must run inline rather than clobber the published job state.
  std::atomic<bool> busy{false};

  /// Chunk c of the balanced partition of [0, n) into `chunks` pieces.
  static void chunk_bounds(std::size_t n, std::size_t chunks, std::size_t c,
                           std::size_t& begin, std::size_t& end) noexcept {
    begin = n * c / chunks;
    end = n * (c + 1) / chunks;
  }

  void run_chunks(std::size_t n, std::size_t chunks, ParallelForFn fn) {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      std::size_t b, e;
      chunk_bounds(n, chunks, c, b, e);
      if (b < e) fn(b, e);
    }
  }

  /// Wait for job_seq to move past `seen`: spin first, then sleep on
  /// cv_start. Returns `seen` itself only when stopping.
  std::uint64_t wait_for_job(std::uint64_t seen) {
    for (int spins = 0; spins < kIdleSpins; ++spins) {
      if (stop.load(std::memory_order_relaxed)) return seen;
      const std::uint64_t s = job_seq.load(std::memory_order_acquire);
      if (s != seen) return s;
      cpu_pause();
    }
    std::unique_lock<std::mutex> lk(mu);
    cv_start.wait(lk, [&] {
      return stop.load(std::memory_order_relaxed) ||
             job_seq.load(std::memory_order_acquire) != seen;
    });
    return stop.load(std::memory_order_relaxed)
               ? seen
               : job_seq.load(std::memory_order_acquire);
  }

  void worker_loop() {
    tls_in_pool_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      const std::uint64_t seq = wait_for_job(seen);
      if (seq == seen) return;  // stop
      seen = seq;
      run_chunks(job_n, job_chunks, job_fn);
      if (pending.fetch_sub(1, std::memory_order_release) == 1) {
        // Last worker down. Take mu so a caller past its spin and inside
        // cv_done.wait cannot miss the notification.
        std::lock_guard<std::mutex> lk(mu);
        cv_done.notify_one();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  const std::size_t extra = threads > 1 ? threads - 1 : 0;
  impl_->workers.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop.store(true, std::memory_order_relaxed);
  }
  impl_->cv_start.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

std::size_t ThreadPool::thread_count() const noexcept {
  return impl_->workers.size() + 1;
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              ParallelForFn fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t threads = thread_count();
  // Inline when there is nothing to split, nobody to split it across, or we
  // are already on a pool worker (nested call).
  if (threads <= 1 || n <= grain || tls_in_pool_worker) {
    fn(0, n);
    return;
  }
  const std::size_t chunks = std::min(threads, n / grain);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  bool expected = false;
  if (!impl_->busy.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire)) {
    fn(0, n);
    return;
  }
  impl_->job_fn = fn;
  impl_->job_n = n;
  impl_->job_chunks = chunks;
  impl_->next_chunk.store(0, std::memory_order_relaxed);
  impl_->pending.store(impl_->workers.size(), std::memory_order_relaxed);
  {
    // Publish under mu (see Impl::job_seq) so sleeping workers can't miss
    // it; spinning workers pick the release-store up without the lock.
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->job_seq.fetch_add(1, std::memory_order_release);
  }
  impl_->cv_start.notify_all();
  impl_->run_chunks(n, chunks, fn);
  // Completion latch: spin for stragglers first — for codec-sized chunks
  // the workers finish within the budget and no futex is touched.
  bool done = false;
  for (int spins = 0; spins < kDoneSpins; ++spins) {
    if (impl_->pending.load(std::memory_order_acquire) == 0) {
      done = true;
      break;
    }
    cpu_pause();
  }
  if (!done) {
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->cv_done.wait(lk, [&] {
      return impl_->pending.load(std::memory_order_acquire) == 0;
    });
  }
  impl_->job_fn = ParallelForFn();
  impl_->busy.store(false, std::memory_order_release);
}

namespace {
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_thread_count());
  return *g_pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool = std::make_unique<ThreadPool>(threads > 0 ? threads : 1);
}

void parallel_for(std::size_t n, std::size_t grain, ParallelForFn fn) {
  ThreadPool::global().parallel_for(n, grain, fn);
}

}  // namespace trimgrad::core
