// TraceLog: span/instant recording, time-source injection, Chrome-trace
// JSON well-formedness (checked with a minimal JSON parser, no external
// deps), and bit-identical output across pool sizes.
#include "core/trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "core/codec.h"
#include "core/metrics.h"
#include "core/metrics_export.h"
#include "core/prng.h"
#include "core/threadpool.h"

namespace trimgrad::core {
namespace {

// --- Minimal JSON validator ------------------------------------------------
// Recursive-descent parse that accepts exactly the JSON grammar (objects,
// arrays, strings with escapes, numbers, true/false/null). Returns true iff
// the whole input is one valid value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
            ++pos_;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
      ++pos_;
    }
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Trace, RecordsCompleteAndInstantEvents) {
  TraceLog log;
  log.complete("work", "test", 1.0, 0.5, 3, {{"n", 7.0}});
  log.instant("mark", "test");
  EXPECT_EQ(log.event_count(), 2u);
  const std::string json = log.to_json();
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":500000.000000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"n\":7}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
}

TEST(Trace, SpanRecordsOnDestruction) {
  TraceLog log;
  {
    TraceLog::Span s = log.span("scoped", "test");
    s.arg("k", 2.0);
    EXPECT_EQ(log.event_count(), 0u);  // nothing until the span closes
  }
  EXPECT_EQ(log.event_count(), 1u);
  const std::string json = log.to_json();
  EXPECT_NE(json.find("\"name\":\"scoped\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"k\":2}"), std::string::npos) << json;
}

TEST(Trace, LogicalClockTicksDeterministically) {
  TraceLog log;
  EXPECT_EQ(log.now_seconds(), 0.0);
  EXPECT_EQ(log.now_seconds(), 1e-6);
  log.clear();
  EXPECT_EQ(log.now_seconds(), 0.0);  // clear() resets the tick
}

TEST(Trace, TimeSourceInjection) {
  TraceLog log;
  double now = 4.0;
  log.set_time_source([&now] { return now; });
  EXPECT_EQ(log.now_seconds(), 4.0);
  log.instant("at4", "test");
  now = 5.0;
  log.instant("at5", "test");
  const std::string json = log.to_json();
  EXPECT_NE(json.find("\"ts\":4000000.000000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":5000000.000000"), std::string::npos) << json;
  log.set_time_source({});
  EXPECT_EQ(log.now_seconds(), 0.0);  // back to the logical ticker
}

TEST(Trace, ClearTimeSourceOnlyClearsItsOwner) {
  TraceLog log;
  int first = 0;
  int second = 0;
  log.set_time_source([] { return 1.0; }, &first);
  log.set_time_source([] { return 2.0; }, &second);
  log.clear_time_source(&first);  // superseded owner: no-op
  EXPECT_EQ(log.now_seconds(), 2.0);
  log.clear_time_source(&second);
  EXPECT_EQ(log.now_seconds(), 0.0);  // back to the logical ticker
}

TEST(Trace, DisabledLogDropsEvents) {
  TraceLog log;
  log.set_enabled(false);
  log.instant("dropped", "test");
  EXPECT_EQ(log.event_count(), 0u);
  log.set_enabled(true);
  log.instant("kept", "test");
  EXPECT_EQ(log.event_count(), 1u);
}

TEST(Trace, MaxEventsCapStopsRecording) {
  TraceLog log;
  log.set_max_events(3);
  for (int i = 0; i < 10; ++i) log.instant("e", "test");
  EXPECT_EQ(log.event_count(), 3u);
  log.clear();
  log.instant("e", "test");
  EXPECT_EQ(log.event_count(), 1u);  // cap applies to the live buffer
}

TEST(Trace, JsonIsWellFormed) {
  TraceLog log;
  log.complete("na\"me with \\ and\nnewline", "cat", 0.0, 1.0, 0,
               {{"quo\"te", -1.5}});
  log.instant("i", "c");
  const std::string json = log.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(Trace, EmptyLogIsWellFormed) {
  TraceLog log;
  EXPECT_TRUE(JsonChecker(log.to_json()).valid()) << log.to_json();
}

// --- Determinism across pool sizes ----------------------------------------
// Drive the real instrumented codec path (sequential spans + worker-side
// counters) at pool sizes 1/2/8 and require both telemetry surfaces to
// serialize byte-identically. This is the ISSUE 3 acceptance gate.
std::pair<std::string, std::string> run_codec_telemetry(std::size_t threads) {
  ThreadPool::set_global_threads(threads);
  TraceLog::global().clear();
  MetricsRegistry::global().reset_values();

  Xoshiro256 rng(42);
  std::vector<float> grad(8192);
  for (auto& g : grad) g = static_cast<float>(rng.gaussian());
  CodecConfig cfg;
  cfg.scheme = Scheme::kRHT;
  cfg.rht_row_len = 1 << 10;  // 8 rows -> real parallel fan-out
  TrimmableEncoder enc(cfg);
  TrimmableDecoder dec(cfg);
  auto msg = enc.encode(grad, /*msg_id=*/1, /*epoch=*/1);
  for (std::size_t i = 0; i < msg.packets.size(); i += 3) {
    msg.packets[i].trim();
  }
  auto out = dec.decode(msg.packets, msg.meta);
  EXPECT_GT(out.stats.trimmed_coords, 0u);

  return {TraceLog::global().to_json(),
          metrics_to_json(MetricsRegistry::global())};
}

TEST(TraceDeterminism, TelemetryBitIdenticalAcrossThreadCounts) {
  const auto t1 = run_codec_telemetry(1);
  const auto t2 = run_codec_telemetry(2);
  const auto t8 = run_codec_telemetry(8);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(t1.first, t2.first);   // trace JSON
  EXPECT_EQ(t1.first, t8.first);
  EXPECT_EQ(t1.second, t2.second); // metrics JSON
  EXPECT_EQ(t1.second, t8.second);
  EXPECT_TRUE(JsonChecker(t1.first).valid());
  EXPECT_TRUE(JsonChecker(t1.second).valid());
  // The run actually exercised the instrumented paths.
  EXPECT_NE(t1.second.find("\"codec.rht.rows_encoded\":8"), std::string::npos)
      << t1.second;
  EXPECT_NE(t1.first.find("codec.encode"), std::string::npos) << t1.first;
}

}  // namespace
}  // namespace trimgrad::core
