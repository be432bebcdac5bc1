#include "net/fault_script.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/number_text.h"
#include "core/prng.h"

namespace trimgrad::net {
namespace {

using core::format_double;

/// `tok` as a finite double in [lo, hi].
double parse_double(const std::string& tok, const std::string& line,
                    double lo,
                    double hi = std::numeric_limits<double>::infinity()) {
  const auto v = core::parse_double(tok);
  if (!v)
    throw std::invalid_argument("FaultScript: bad number '" + tok +
                                "' in line: " + line);
  if (*v < lo || *v > hi)
    throw std::invalid_argument("FaultScript: value '" + tok + "' outside [" +
                                format_double(lo) + ", " + format_double(hi) +
                                "] in line: " + line);
  return *v;
}

std::uint64_t parse_uint(const std::string& tok, const std::string& line,
                         std::uint64_t max = UINT64_MAX) {
  if (const auto v = core::parse_uint(tok, max)) return *v;
  throw std::invalid_argument("FaultScript: bad integer '" + tok +
                              "' in line: " + line);
}

NodeId parse_node(const std::string& tok, const std::string& line) {
  return static_cast<NodeId>(
      parse_uint(tok, line, std::numeric_limits<NodeId>::max()));
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> toks;
  std::string t;
  while (is >> t) toks.push_back(std::move(t));
  return toks;
}

void expect_fields(const std::vector<std::string>& toks, std::size_t n,
                   const std::string& line) {
  if (toks.size() != n)
    throw std::invalid_argument("FaultScript: directive '" + toks[0] +
                                "' wants " + std::to_string(n - 1) +
                                " fields in line: " + line);
}

}  // namespace

std::size_t FaultScript::event_count() const noexcept {
  return plane.link_faults.size() + plane.node_faults.size() +
         plane.corrupt_overrides.size() + (plane.corrupt_rate > 0 ? 1u : 0u) +
         (straggler_factor > 1.0 ? 1u : 0u);
}

std::string FaultScript::serialize() const {
  std::ostringstream os;
  os << "faultscript v1\n";
  os << "seed " << plane.seed << '\n';
  os << "corrupt_rate " << format_double(plane.corrupt_rate) << '\n';
  os << "straggler " << format_double(straggler_factor) << '\n';
  for (const auto& c : plane.corrupt_overrides)
    os << "corrupt " << c.node << ' ' << c.port << ' ' << format_double(c.rate)
       << '\n';
  for (const auto& l : plane.link_faults)
    os << "link " << l.node << ' ' << l.port << ' ' << format_double(l.start)
       << ' ' << format_double(l.duration) << ' '
       << format_double(l.bandwidth_scale) << ' '
       << format_double(l.latency_scale) << ' ' << format_double(l.period)
       << ' ' << l.repeats << '\n';
  for (const auto& n : plane.node_faults)
    os << "node " << n.node << ' ' << format_double(n.start) << ' '
       << format_double(n.duration) << ' ' << format_double(n.period) << ' '
       << n.repeats << '\n';
  return os.str();
}

FaultScript FaultScript::parse(const std::string& text) {
  FaultScript s;
  std::istringstream is(text);
  std::string line;
  bool saw_header = false;
  while (std::getline(is, line)) {
    auto toks = tokens_of(line);
    if (toks.empty() || toks[0][0] == '#') continue;
    if (!saw_header) {
      if (toks.size() != 2 || toks[0] != "faultscript" || toks[1] != "v1")
        throw std::invalid_argument(
            "FaultScript: expected 'faultscript v1' header, got line: " + line);
      saw_header = true;
      continue;
    }
    const std::string& d = toks[0];
    if (d == "seed") {
      expect_fields(toks, 2, line);
      s.plane.seed = parse_uint(toks[1], line);
    } else if (d == "corrupt_rate") {
      expect_fields(toks, 2, line);
      s.plane.corrupt_rate = parse_double(toks[1], line, 0.0, 1.0);
    } else if (d == "straggler") {
      expect_fields(toks, 2, line);
      s.straggler_factor = parse_double(toks[1], line, 1.0);
    } else if (d == "corrupt") {
      expect_fields(toks, 4, line);
      CorruptRule c;
      c.node = parse_node(toks[1], line);
      c.port = static_cast<std::size_t>(parse_uint(toks[2], line));
      c.rate = parse_double(toks[3], line, 0.0, 1.0);
      s.plane.corrupt_overrides.push_back(c);
    } else if (d == "link") {
      expect_fields(toks, 9, line);
      LinkFault l;
      l.node = parse_node(toks[1], line);
      l.port = static_cast<std::size_t>(parse_uint(toks[2], line));
      l.start = parse_double(toks[3], line, 0.0);
      l.duration = parse_double(toks[4], line, 0.0);
      l.bandwidth_scale = parse_double(toks[5], line, 0.0);  // 0: hard down
      // Below 1 a sharded run would deliver across domains sooner than the
      // lookahead seal_partition computed.
      l.latency_scale = parse_double(toks[6], line, 1.0);
      l.period = parse_double(toks[7], line, 0.0);
      l.repeats = static_cast<std::size_t>(parse_uint(toks[8], line));
      s.plane.link_faults.push_back(l);
    } else if (d == "node") {
      expect_fields(toks, 6, line);
      NodeFault n;
      n.node = parse_node(toks[1], line);
      n.start = parse_double(toks[2], line, 0.0);
      n.duration = parse_double(toks[3], line, 0.0);
      n.period = parse_double(toks[4], line, 0.0);
      n.repeats = static_cast<std::size_t>(parse_uint(toks[5], line));
      s.plane.node_faults.push_back(n);
    } else {
      throw std::invalid_argument("FaultScript: unknown directive in line: " +
                                  line);
    }
  }
  if (!saw_header)
    throw std::invalid_argument("FaultScript: missing 'faultscript v1' header");
  return s;
}

void FaultScript::save(std::ostream& os) const { os << serialize(); }

FaultScript FaultScript::load(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse(buf.str());
}

FaultScript FaultScript::load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("FaultScript: cannot read " + path);
  return load(f);
}

FaultScript FaultScript::sorted() const {
  FaultScript s = *this;
  std::sort(s.plane.corrupt_overrides.begin(), s.plane.corrupt_overrides.end(),
            [](const CorruptRule& a, const CorruptRule& b) {
              return std::tie(a.node, a.port, a.rate) <
                     std::tie(b.node, b.port, b.rate);
            });
  std::sort(s.plane.link_faults.begin(), s.plane.link_faults.end(),
            [](const LinkFault& a, const LinkFault& b) {
              return std::tie(a.node, a.port, a.start, a.duration,
                              a.bandwidth_scale, a.latency_scale, a.period,
                              a.repeats) <
                     std::tie(b.node, b.port, b.start, b.duration,
                              b.bandwidth_scale, b.latency_scale, b.period,
                              b.repeats);
            });
  std::sort(s.plane.node_faults.begin(), s.plane.node_faults.end(),
            [](const NodeFault& a, const NodeFault& b) {
              return std::tie(a.node, a.start, a.duration, a.period,
                              a.repeats) <
                     std::tie(b.node, b.start, b.duration, b.period,
                              b.repeats);
            });
  return s;
}

FaultScript generate_fault_script(const ScriptGenConfig& cfg) {
  FaultScript s;
  s.plane.seed = cfg.seed;
  if (cfg.intensity <= 0) return s;
  const double k = std::min(1.0, cfg.intensity);
  core::Xoshiro256 rng(core::mix64(cfg.seed, 0x6661756c74ULL /* "fault" */));

  // Quantize every drawn time to a 1 µs grid so scripts round-trip through
  // short decimal forms and shrink steps (halving) stay on the grid.
  auto draw_time = [&](double lo, double hi) {
    const double t = lo + rng.uniform() * (hi - lo);
    return std::max(lo, 1e-6 * std::round(t / 1e-6));
  };

  // Link faults: expected count scales with intensity and candidate pool.
  if (!cfg.links.empty()) {
    const std::size_t max_links =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     k * 4.0 * rng.uniform() + k * 2.0));
    for (std::size_t i = 0; i < max_links; ++i) {
      const auto& [node, port] = cfg.links[rng.below(cfg.links.size())];
      LinkFault l;
      l.node = node;
      l.port = port;
      l.start = draw_time(0.0, cfg.horizon * 0.8);
      l.duration = draw_time(cfg.horizon * 0.01, cfg.horizon * 0.25 * k);
      const double style = rng.uniform();
      if (style < 0.4) {
        // Hard down.
        l.bandwidth_scale = 0.0;
      } else {
        // Brown-out: throttled bandwidth, stretched latency.
        l.bandwidth_scale = 0.1 + 0.8 * rng.uniform();
        l.latency_scale = 1.0 + 3.0 * rng.uniform();
      }
      if (rng.bernoulli(0.3 * k)) {
        // Flap: repeat the window a few times.
        l.period = l.duration * (2.0 + std::floor(3.0 * rng.uniform()));
        l.repeats = 2 + static_cast<std::size_t>(rng.below(3));
      }
      s.plane.link_faults.push_back(l);
    }
  }

  // Node kill windows (rarer: they take a whole switch/host down).
  if (!cfg.nodes.empty() && rng.bernoulli(0.5 * k)) {
    NodeFault n;
    n.node = cfg.nodes[rng.below(cfg.nodes.size())];
    n.start = draw_time(cfg.horizon * 0.1, cfg.horizon * 0.7);
    n.duration = draw_time(cfg.horizon * 0.01, cfg.horizon * 0.15 * k);
    s.plane.node_faults.push_back(n);
  }

  // Global corruption: small rates dominate real deployments, so bias low.
  if (rng.bernoulli(0.6 * k))
    s.plane.corrupt_rate = 1e-6 * std::round(1e6 * 0.02 * k * rng.uniform());

  // Per-port corruption hot spot.
  if (!cfg.links.empty() && rng.bernoulli(0.3 * k)) {
    const auto& [node, port] = cfg.links[rng.below(cfg.links.size())];
    CorruptRule c;
    c.node = node;
    c.port = port;
    c.rate = 1e-6 * std::round(1e6 * 0.1 * k * rng.uniform());
    if (c.rate > 0) s.plane.corrupt_overrides.push_back(c);
  }

  // Straggler factor on the compute side.
  if (rng.bernoulli(0.4 * k))
    s.straggler_factor = 1.0 + 0.5 * std::round(8.0 * k * rng.uniform());
  if (s.straggler_factor <= 1.0) s.straggler_factor = 1.0;

  return s;
}

}  // namespace trimgrad::net
