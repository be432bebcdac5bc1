#include "core/trace.h"

#include <cstdio>
#include <fstream>

namespace trimgrad::core {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_number(std::string& out, double v, const char* fmt) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  out += buf;
}

}  // namespace

void TraceLog::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = enabled;
}

bool TraceLog::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void TraceLog::set_time_source(TimeFn fn, const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  time_fn_ = std::move(fn);
  time_owner_ = owner;
}

void TraceLog::clear_time_source(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  if (time_owner_ != owner) return;
  time_fn_ = nullptr;
  time_owner_ = nullptr;
}

void TraceLog::set_max_events(std::size_t max_events) {
  std::lock_guard<std::mutex> lock(mu_);
  max_events_ = max_events;
}

void TraceLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  tick_ = 0;
}

double TraceLog::now_seconds() {
  std::lock_guard<std::mutex> lock(mu_);
  if (time_fn_) return time_fn_();
  // Logical clock: one microsecond per query, so un-simulated programs
  // still get strictly ordered, reproducible timestamps.
  return static_cast<double>(tick_++) * 1e-6;
}

void TraceLog::instant(std::string_view name, std::string_view cat,
                       std::uint32_t tid,
                       std::vector<std::pair<std::string, double>> args) {
  const double now = now_seconds();
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  if (max_events_ != 0 && events_.size() >= max_events_) return;
  Event& ev = events_.emplace_back();
  ev.name = std::string(name);
  ev.cat = std::string(cat);
  ev.phase = 'i';
  ev.ts_us = now * 1e6;
  ev.tid = tid;
  ev.args = std::move(args);
}

void TraceLog::complete(std::string_view name, std::string_view cat,
                        double start_s, double dur_s, std::uint32_t tid,
                        std::vector<std::pair<std::string, double>> args) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  if (max_events_ != 0 && events_.size() >= max_events_) return;
  Event& ev = events_.emplace_back();
  ev.name = std::string(name);
  ev.cat = std::string(cat);
  ev.phase = 'X';
  ev.ts_us = start_s * 1e6;
  ev.dur_us = dur_s * 1e6;
  ev.tid = tid;
  ev.args = std::move(args);
}

TraceLog::Span::Span(TraceLog* log, std::string_view name, std::string_view cat)
    : log_(log), name_(name), cat_(cat), start_s_(log->now_seconds()) {}

TraceLog::Span::Span(Span&& other) noexcept
    : log_(other.log_),
      name_(std::move(other.name_)),
      cat_(std::move(other.cat_)),
      start_s_(other.start_s_),
      args_(std::move(other.args_)) {
  other.log_ = nullptr;
}

TraceLog::Span::~Span() {
  if (log_ == nullptr) return;
  const double end_s = log_->now_seconds();
  log_->complete(name_, cat_, start_s_, end_s - start_s_, /*tid=*/0,
                 std::move(args_));
}

void TraceLog::Span::arg(std::string_view key, double value) {
  args_.emplace_back(std::string(key), value);
}

TraceLog::Span TraceLog::span(std::string_view name, std::string_view cat) {
  return Span(this, name, cat);
}

std::size_t TraceLog::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string TraceLog::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(events_.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const Event& ev : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, ev.name);
    out += "\",\"cat\":\"";
    append_escaped(out, ev.cat);
    out += "\",\"ph\":\"";
    out += ev.phase;
    out += "\",\"ts\":";
    append_number(out, ev.ts_us, "%.6f");
    if (ev.phase == 'X') {
      out += ",\"dur\":";
      append_number(out, ev.dur_us, "%.6f");
    }
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(ev.tid);
    if (ev.phase == 'i') out += ",\"s\":\"t\"";
    if (!ev.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : ev.args) {
        if (!first_arg) out += ',';
        first_arg = false;
        out += '"';
        append_escaped(out, key);
        out += "\":";
        append_number(out, value, "%.9g");
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool TraceLog::write_json(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  const std::string json = to_json();
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(file);
}

TraceLog& TraceLog::global() {
  static TraceLog* log = new TraceLog();
  return *log;
}

}  // namespace trimgrad::core
