// MetricsRegistry: registration semantics, histogram bucket edges, and the
// determinism contract — snapshots (and their JSON serialization) must be
// bit-identical no matter how many pool threads produced the increments.
#include "core/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics_export.h"
#include "core/threadpool.h"

namespace trimgrad::core {
namespace {

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  Counter c = reg.counter("a");
  c.add();
  c.add(41);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "a");
  EXPECT_EQ(snap.counters[0].value, 42u);
}

TEST(Metrics, DefaultConstructedHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add();      // must not crash
  g.set(1.0);
  h.observe(1.0);
}

TEST(Metrics, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  Counter c1 = reg.counter("dup");
  Counter c2 = reg.counter("dup");
  c1.add(1);
  c2.add(2);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 3u);

  Histogram h1 = reg.histogram("h", {1.0, 2.0});
  Histogram h2 = reg.histogram("h", {99.0});  // bounds of first win
  h1.observe(0.5);
  h2.observe(0.5);
  const auto snap2 = reg.snapshot();
  ASSERT_EQ(snap2.histograms.size(), 1u);
  EXPECT_EQ(snap2.histograms[0].bounds, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(snap2.histograms[0].counts[0], 2u);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("g");
  g.set(1.5);
  g.set(-2.25);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -2.25);
}

TEST(Metrics, HistogramBucketEdgesUseLeSemantics) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("h", {0.0, 10.0, 100.0});
  h.observe(-5.0);   // <= 0        -> bucket 0
  h.observe(0.0);    // == 0 ("le") -> bucket 0
  h.observe(0.001);  // <= 10       -> bucket 1
  h.observe(10.0);   // == 10       -> bucket 1
  h.observe(99.9);   // <= 100      -> bucket 2
  h.observe(100.0);  // == 100      -> bucket 2
  h.observe(100.1);  // > last      -> overflow bucket 3
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hist = snap.histograms[0];
  ASSERT_EQ(hist.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hist.counts[0], 2u);
  EXPECT_EQ(hist.counts[1], 2u);
  EXPECT_EQ(hist.counts[2], 2u);
  EXPECT_EQ(hist.counts[3], 1u);
  EXPECT_EQ(hist.total, 7u);
}

TEST(Metrics, SnapshotPreservesRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("zebra");
  reg.counter("apple");
  reg.gauge("mid");
  reg.histogram("tail", {1.0});
  reg.histogram("head", {1.0});
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "zebra");
  EXPECT_EQ(snap.counters[1].name, "apple");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "tail");
  EXPECT_EQ(snap.histograms[1].name, "head");
}

TEST(Metrics, ResetValuesZeroesButKeepsRegistrationsAndHandles) {
  MetricsRegistry reg;
  Counter c = reg.counter("c");
  Gauge g = reg.gauge("g");
  Histogram h = reg.histogram("h", {1.0});
  c.add(7);
  g.set(3.0);
  h.observe(0.5);
  reg.reset_values();
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters[0].value, 0u);
  EXPECT_EQ(snap.gauges[0].value, 0.0);
  EXPECT_EQ(snap.histograms[0].total, 0u);
  // Old handles keep working after a reset.
  c.add(2);
  h.observe(0.5);
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.histograms[0].total, 1u);
}

TEST(Metrics, ExportJsonHasAllSections) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(1.25);
  reg.histogram("h", {1.0, 2.0}).observe(1.5);
  const std::string json = metrics_to_json(reg);
  EXPECT_NE(json.find("\"counters\":{\"c\":5}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"g\":1.25}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h\":{\"bounds\":[1,2],\"counts\":[0,1,0],\"total\":1}"),
            std::string::npos)
      << json;
}

TEST(Metrics, AlternatingRegistriesOnOneThreadStaySeparate) {
  // The per-thread last-registry cache must switch shards on every change
  // of registry, not keep writing into the one it saw first.
  MetricsRegistry a;
  MetricsRegistry b;
  Counter ca = a.counter("n");
  Counter cb = b.counter("n");
  Histogram ha = a.histogram("h", {1.0});
  for (int i = 0; i < 1000; ++i) {
    ca.add(1);
    cb.add(2);
    ha.observe(0.5);
  }
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  EXPECT_EQ(sa.counters[0].value, 1000u);
  EXPECT_EQ(sb.counters[0].value, 2000u);
  ASSERT_EQ(sa.histograms.size(), 1u);
  EXPECT_EQ(sa.histograms[0].total, 1000u);
  EXPECT_TRUE(sb.histograms.empty());
}

TEST(Metrics, RegistrationOnPoolWorkerKeepsConcurrentIncrementsExact) {
  // One thread increments a counter nonstop while pool workers register new
  // counters and histograms. Registration must not touch the incrementing
  // thread's shard (it grows itself on its next add), so no increment is
  // lost and the new metrics count exactly.
  MetricsRegistry reg;
  Counter hot = reg.counter("hot");
  std::atomic<bool> started{false};
  std::atomic<bool> registered{false};
  std::uint64_t hot_adds = 0;
  std::thread incrementer([&] {
    started.store(true);
    while (!registered.load()) {
      hot.add();
      ++hot_adds;
    }
    for (int i = 0; i < 1000; ++i) {
      hot.add();
      ++hot_adds;
    }
  });
  while (!started.load()) std::this_thread::yield();
  constexpr int kLate = 200;
  {
    ThreadPool pool(2);
    pool.parallel_for(2, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t chunk = b; chunk < e; ++chunk) {
        const std::string tag = std::to_string(chunk) + ".";
        for (int i = 0; i < kLate; ++i) {
          reg.counter("late." + tag + std::to_string(i)).add(i + 1);
          reg.histogram("late_h." + tag + std::to_string(i), {1.0})
              .observe(0.5);
        }
      }
    });
  }
  registered.store(true);
  incrementer.join();

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u + 2 * kLate);
  EXPECT_EQ(snap.counters[0].value, hot_adds);
  for (const auto& c : snap.counters) {
    if (c.name == "hot") continue;
    const std::string idx = c.name.substr(c.name.rfind('.') + 1);
    EXPECT_EQ(c.value, std::stoull(idx) + 1) << c.name;
  }
  ASSERT_EQ(snap.histograms.size(), 2u * kLate);
  for (const auto& h : snap.histograms) EXPECT_EQ(h.total, 1u) << h.name;
}

// Drive a registry from inside parallel_for workers at several pool sizes
// and require the serialized snapshot to be byte-identical. This is the
// acceptance gate for the telemetry subsystem: the per-thread shards may
// split the increments differently at every pool size, but the reduced
// values may not move.
std::string run_sharded_workload(std::size_t threads) {
  ThreadPool::set_global_threads(threads);
  MetricsRegistry reg;
  Counter items = reg.counter("w.items");
  Counter odd = reg.counter("w.odd");
  Histogram h = reg.histogram("w.value", {10.0, 100.0, 1000.0});
  constexpr std::size_t kN = 10'000;
  parallel_for(kN, 64, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      items.add();
      if (i % 2 == 1) odd.add(i % 7);
      h.observe(static_cast<double>(i % 1500));
    }
  });
  return metrics_to_json(reg);
}

TEST(MetricsDeterminism, SnapshotBitIdenticalAcrossThreadCounts) {
  const std::string t1 = run_sharded_workload(1);
  const std::string t2 = run_sharded_workload(2);
  const std::string t8 = run_sharded_workload(8);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  // And the values are the known ground truth, not merely self-consistent.
  EXPECT_NE(t1.find("\"w.items\":10000"), std::string::npos) << t1;
}

}  // namespace
}  // namespace trimgrad::core
