#include "core/policy.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "core/codec_registry.h"
#include "core/le_bytes.h"
#include "core/number_text.h"

namespace trimgrad::core {

namespace {

double rate(std::uint64_t part, std::uint64_t whole) noexcept {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

struct ByteReader {
  std::span<const std::uint8_t> data;

  /// Start of the next n bytes; throws when fewer remain.
  const std::uint8_t* take(std::size_t n) {
    if (data.size() < n)
      throw std::runtime_error("NetFeedback blob truncated");
    const std::uint8_t* p = data.data();
    data = data.subspan(n);
    return p;
  }
  std::uint64_t u64() { return load_u64(take(8)); }
  double f64() { return load_f64(take(8)); }
};

unsigned clamp_q(unsigned q) noexcept {
  return std::clamp(q, 1u, 31u);
}

// ---- fixed --------------------------------------------------------------

class FixedPolicy final : public CompressionPolicy {
 public:
  explicit FixedPolicy(const PolicyConfig& cfg)
      : decision_{cfg.codec, clamp_q(cfg.q_bits)} {
    CodecRegistry::global().at(decision_.codec);
  }

  const char* name() const noexcept override { return "fixed"; }
  PolicyDecision decide(std::uint64_t, const NetFeedback&) override {
    return decision_;
  }
  void restore(std::span<const std::uint8_t> blob) override {
    if (!blob.empty())
      throw std::runtime_error("fixed policy carries no state");
  }

 private:
  PolicyDecision decision_;
};

// ---- aimd-trim ----------------------------------------------------------

/// AdaptiveQController (core/adaptive.h) closed over live feedback: every
/// round observes the previous round's congestion pressure and AIMDs the
/// tail depth Q — multiplicative cut when trimming runs hot, additive
/// recovery toward full precision when the fabric has headroom. The codec
/// itself stays fixed; Q is the paper's §5.3 ahead-of-time knob.
class AimdTrimPolicy final : public CompressionPolicy {
 public:
  explicit AimdTrimPolicy(const PolicyConfig& cfg)
      : codec_(cfg.codec), controller_(cfg.aimd) {
    CodecRegistry::global().at(codec_);
  }

  const char* name() const noexcept override { return "aimd-trim"; }

  PolicyDecision decide(std::uint64_t round, const NetFeedback& prev) override {
    if (round > 0) controller_.observe(prev.pressure());
    return {codec_, controller_.q()};
  }

  std::vector<std::uint8_t> state() const override {
    std::vector<std::uint8_t> out;
    put_u64(out, controller_.q());
    return out;
  }

  void restore(std::span<const std::uint8_t> blob) override {
    ByteReader r{blob};
    const std::uint64_t q = r.u64();
    if (!r.data.empty() || q < 1 || q > 31)
      throw std::runtime_error("aimd-trim policy state malformed");
    // Re-seat the controller at the checkpointed Q; the AIMD rules are
    // memoryless beyond it.
    AdaptiveQConfig cfg = controller_.config();
    cfg.initial_q = static_cast<unsigned>(q);
    controller_ = AdaptiveQController(cfg);
  }

 private:
  std::string codec_;
  AdaptiveQController controller_;
};

// ---- schedule -----------------------------------------------------------

/// Scripted switches: ';'-separated "round:codec@q" entries, sorted by
/// round at parse time; decide() applies the last entry at or before the
/// round and the base codec/Q before the first entry. Stateless.
class SchedulePolicy final : public CompressionPolicy {
 public:
  explicit SchedulePolicy(const PolicyConfig& cfg)
      : base_{cfg.codec, clamp_q(cfg.q_bits)} {
    CodecRegistry::global().at(base_.codec);
    parse_script(cfg.schedule);
  }

  const char* name() const noexcept override { return "schedule"; }

  PolicyDecision decide(std::uint64_t round, const NetFeedback&) override {
    PolicyDecision d = base_;
    for (const auto& e : entries_) {
      if (e.round > round) break;
      d = e.decision;
    }
    return d;
  }

  void restore(std::span<const std::uint8_t> blob) override {
    if (!blob.empty())
      throw std::runtime_error("schedule policy carries no state");
  }

 private:
  struct Entry {
    std::uint64_t round = 0;
    PolicyDecision decision;
  };

  [[noreturn]] static void bad_entry(const std::string& entry) {
    throw std::invalid_argument(
        "policy schedule entry '" + entry +
        "' is not 'round:codec@q' (example: 8:sd@15)");
  }

  void parse_script(const std::string& script) {
    std::size_t i = 0;
    while (i < script.size()) {
      std::size_t j = script.find(';', i);
      if (j == std::string::npos) j = script.size();
      const std::string entry = script.substr(i, j - i);
      i = j + 1;
      if (entry.empty()) continue;
      const std::size_t colon = entry.find(':');
      const std::size_t at = entry.find('@');
      if (colon == std::string::npos || at == std::string::npos || at < colon)
        bad_entry(entry);
      const std::string_view text(entry);
      const auto round = parse_uint(text.substr(0, colon));
      const auto q = parse_uint(text.substr(at + 1), 31);
      if (!round || !q || *q < 1) bad_entry(entry);
      Entry e;
      e.round = *round;
      e.decision.codec = entry.substr(colon + 1, at - colon - 1);
      e.decision.q_bits = static_cast<unsigned>(*q);
      CodecRegistry::global().at(e.decision.codec);
      entries_.push_back(std::move(e));
    }
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.round < b.round;
                     });
  }

  PolicyDecision base_;
  std::vector<Entry> entries_;
};

template <typename P>
std::unique_ptr<CompressionPolicy> make_policy(const PolicyConfig& cfg) {
  return std::make_unique<P>(cfg);
}

}  // namespace

double NetFeedback::trim_rate() const noexcept { return rate(trimmed, packets); }
double NetFeedback::drop_rate() const noexcept { return rate(dropped, packets); }
double NetFeedback::retransmit_rate() const noexcept {
  return rate(retransmits, packets);
}

double NetFeedback::pressure() const noexcept {
  const double p = trim_rate() + drop_rate() + retransmit_rate() +
                   0.5 * dctcp_alpha + 0.5 * queue_depth_frac;
  return std::min(1.0, std::max(0.0, p));
}

void append_feedback(std::vector<std::uint8_t>& out, const NetFeedback& fb) {
  put_u64(out, fb.round);
  put_u64(out, fb.packets);
  put_u64(out, fb.trimmed);
  put_u64(out, fb.dropped);
  put_u64(out, fb.retransmits);
  put_u64(out, fb.corrupt_nacks);
  put_u64(out, fb.flow_failures);
  put_u64(out, fb.wire_bytes);
  put_f64(out, fb.comm_s);
  put_f64(out, fb.dctcp_alpha);
  put_f64(out, fb.queue_depth_frac);
}

NetFeedback parse_feedback(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  NetFeedback fb;
  fb.round = r.u64();
  fb.packets = r.u64();
  fb.trimmed = r.u64();
  fb.dropped = r.u64();
  fb.retransmits = r.u64();
  fb.corrupt_nacks = r.u64();
  fb.flow_failures = r.u64();
  fb.wire_bytes = r.u64();
  fb.comm_s = r.f64();
  fb.dctcp_alpha = r.f64();
  fb.queue_depth_frac = r.f64();
  if (!r.data.empty())
    throw std::runtime_error("NetFeedback blob has trailing bytes");
  return fb;
}

std::string to_string(const PolicyDecision& d) {
  return d.codec + "@" + std::to_string(d.q_bits);
}

void CompressionPolicy::restore(std::span<const std::uint8_t> blob) {
  if (!blob.empty())
    throw std::runtime_error("policy carries no state");
}

const PolicyRegistry& PolicyRegistry::global() {
  static const PolicyRegistry* reg = [] {
    auto* r = new PolicyRegistry();
    r->add({"fixed", "one codec and tail depth for the whole run",
            &make_policy<FixedPolicy>});
    r->add({"aimd-trim",
            "AdaptiveQController: AIMD the tail depth on observed congestion "
            "pressure, targeting a small positive trim rate",
            &make_policy<AimdTrimPolicy>});
    r->add({"schedule",
            "scripted switches: ';'-separated round:codec@q entries",
            &make_policy<SchedulePolicy>});
    return r;
  }();
  return *reg;
}

const PolicyRegistry::PolicyInfo* PolicyRegistry::find(
    const std::string& name) const {
  for (const auto& p : policies_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const PolicyRegistry::PolicyInfo& PolicyRegistry::at(
    const std::string& name) const {
  if (const PolicyInfo* p = find(name)) return *p;
  std::string msg = "unknown policy '" + name + "'; registered:";
  for (const auto& n : names()) msg += " " + n;
  throw std::invalid_argument(msg);
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(policies_.size());
  for (const auto& p : policies_) out.push_back(p.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<CompressionPolicy> PolicyRegistry::make(
    const PolicyConfig& cfg) const {
  return at(cfg.policy).make(cfg);
}

void PolicyRegistry::add(PolicyInfo info) {
  policies_.push_back(std::move(info));
}

}  // namespace trimgrad::core
