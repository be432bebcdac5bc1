// Trace event log: timestamped spans and instants on the *simulated* clock,
// serialized in Chrome trace-event JSON ("chrome://tracing" / Perfetto).
//
// The time source is injectable: net::Simulator installs its own clock while
// it is alive, and the DDP trainer records spans with explicit sim-clock
// timestamps. With no source installed, a deterministic logical tick clock
// (one microsecond per event) keeps output reproducible — never wall time.
//
// Determinism contract: events are recorded only from sequential
// orchestration code (never inside parallel_for bodies), so the event
// sequence — and therefore the serialized JSON — is bit-identical for any
// thread count. Parallel workers report through MetricsRegistry counters
// instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace trimgrad::core {

class TraceLog {
 public:
  /// Returns the current time in seconds (simulated or logical).
  using TimeFn = std::function<double()>;

  struct Event {
    std::string name;
    std::string cat;
    char phase = 'X';      // 'X' complete, 'i' instant
    double ts_us = 0.0;    // microseconds
    double dur_us = 0.0;   // 'X' only
    std::uint32_t tid = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  /// Disabled logs drop events at the recording call; on by default.
  void set_enabled(bool enabled);
  bool enabled() const;

  /// Install the clock (seconds). Pass {} to revert to the logical tick
  /// clock. `owner` tags the source for clear_time_source(); net::Simulator
  /// installs itself here for its lifetime.
  void set_time_source(TimeFn fn, const void* owner = nullptr);

  /// Revert to the logical tick clock, but only if the installed source is
  /// still `owner`'s: a simulator that dies after a newer one took over the
  /// clock must not take the newer one's clock away.
  void clear_time_source(const void* owner);

  /// Drop the oldest-first tail once this many events are recorded
  /// (recording stops; nothing is evicted). 0 = unlimited. Default 1M.
  void set_max_events(std::size_t max_events);

  /// Forget all events and reset the logical tick clock.
  void clear();

  /// Current time from the installed source, else the tick clock.
  double now_seconds();

  /// Record a zero-duration instant at now.
  void instant(std::string_view name, std::string_view cat,
               std::uint32_t tid = 0,
               std::vector<std::pair<std::string, double>> args = {});

  /// Record a complete ('X') event with explicit start/duration in seconds.
  void complete(std::string_view name, std::string_view cat, double start_s,
                double dur_s, std::uint32_t tid = 0,
                std::vector<std::pair<std::string, double>> args = {});

  /// RAII span: captures now() at construction, records a complete event at
  /// destruction. Use only in sequential phases.
  class Span {
   public:
    Span(Span&& other) noexcept;
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    ~Span();
    /// Attach a numeric argument shown in the trace viewer.
    void arg(std::string_view key, double value);

   private:
    friend class TraceLog;
    Span(TraceLog* log, std::string_view name, std::string_view cat);
    TraceLog* log_ = nullptr;
    std::string name_;
    std::string cat_;
    double start_s_ = 0.0;
    std::vector<std::pair<std::string, double>> args_;
  };
  Span span(std::string_view name, std::string_view cat);

  std::size_t event_count() const;

  /// Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

  /// The process-wide log all built-in instrumentation records to.
  static TraceLog& global();

 private:
  mutable std::mutex mu_;
  bool enabled_ = true;
  TimeFn time_fn_;
  const void* time_owner_ = nullptr;
  std::uint64_t tick_ = 0;
  std::size_t max_events_ = 1u << 20;
  std::vector<Event> events_;
};

}  // namespace trimgrad::core
