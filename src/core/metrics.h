// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms — the uniform instrumentation substrate every layer reports
// through (queues, switches, transports, codecs, the DDP trainer).
//
// Determinism contract (extends the threading contract in threadpool.h):
// counter and histogram increments land in lock-free per-thread shards and
// are reduced at snapshot time. Because every shard cell is an integer, the
// reduction is a sum of uint64s — associative and commutative — so the
// snapshot is bit-identical for any thread count and any scheduling, as
// long as the *multiset* of increments is thread-count-independent (which
// the parallel_for contract guarantees). Snapshots list metrics in
// registration order, which is itself deterministic because registration
// only happens from sequential phases. Histograms therefore store only
// integer bucket counts (no floating-point sums, whose reduction order
// would leak the shard count into the low bits).
//
// Hot-path cost: one thread-local compare, one atomic load and one uint64
// add. Registration takes a mutex and is safe while other threads
// increment (it never touches their shards); it belongs in sequential
// phases anyway, so that registration order is deterministic. Gauges,
// snapshots, and resets take the mutex and are sequential-only.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace trimgrad::core {

class MetricsRegistry;

/// Monotone counter handle. Cheap to copy; valid for the registry's
/// lifetime. A default-constructed handle is a no-op sink.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const noexcept;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::size_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::size_t id_ = 0;
};

/// Last-write-wins gauge. Set from sequential phases only (takes the
/// registry mutex; there is no per-thread shard for doubles because a
/// floating-point reduction would not be order-independent).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* reg, std::size_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::size_t id_ = 0;
};

/// Fixed-bucket histogram handle. A value v lands in the first bucket whose
/// upper bound satisfies v <= bound ("le" semantics, Prometheus-style);
/// values above the last bound land in the implicit overflow bucket.
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const noexcept;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, std::size_t id,
            const std::vector<double>* bounds)
      : reg_(reg), id_(id), bounds_(bounds) {}
  MetricsRegistry* reg_ = nullptr;
  std::size_t id_ = 0;
  const std::vector<double>* bounds_ = nullptr;
};

class MetricsRegistry {
 public:
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;          ///< upper bounds, ascending
    std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (overflow last)
    std::uint64_t total = 0;             ///< sum of counts
  };
  /// Deterministic reduction of all shards, metrics in registration order.
  struct Snapshot {
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
  };

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up — registration is idempotent by name) a metric.
  /// Thread-safe; call from sequential phases to keep snapshot order
  /// deterministic. histogram() with a name that already exists
  /// returns the existing metric and ignores the new bounds.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, std::vector<double> upper_bounds);

  /// Reduce every shard. Call only while no parallel work is in flight.
  Snapshot snapshot() const;

  /// Zero all values (counters, gauges, histogram buckets) while keeping
  /// every registration — existing handles stay valid. Sequential only.
  void reset_values();

  /// The process-wide registry all built-in instrumentation reports to.
  static MetricsRegistry& global();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  /// One thread's cells. Only its own thread writes or grows it (growth
  /// under mu_); snapshot() reads it only while no parallel work runs.
  struct Shard {
    std::vector<std::uint64_t> counters;              // by counter id
    std::vector<std::vector<std::uint64_t>> hists;    // by histogram id
    std::uint64_t generation = 0;  // registrations it has been sized for
  };
  struct HistInfo {
    std::string name;
    std::vector<double> bounds;
  };

  /// The calling thread's shard, sized for every registered metric.
  Shard& local_shard() noexcept;
  Shard& local_shard_slow() noexcept;
  /// Size `shard` for every metric registered so far. Caller holds mu_.
  void grow_locked(Shard& shard) const;

  /// The registry this thread touched last and its shard there: the fast
  /// path of local_shard().
  struct LastShard {
    std::uint64_t registry = 0;  ///< instance id; ids start at 1
    Shard* shard = nullptr;
  };
  static thread_local LastShard tl_last_;

  mutable std::mutex mu_;
  std::uint64_t instance_id_ = 0;
  /// Bumped (under mu_) by every counter/histogram registration; the hot
  /// path compares it with its shard's generation instead of reading the
  /// name vectors, which other threads may be appending to.
  std::atomic<std::uint64_t> generation_{0};
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<double> gauge_values_;
  std::vector<std::unique_ptr<HistInfo>> hists_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace trimgrad::core
