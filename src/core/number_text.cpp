#include "core/number_text.h"

#include <charconv>
#include <cmath>

namespace trimgrad::core {

std::optional<double> parse_double(std::string_view text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return {};
  return v;
}

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v > max) return {};
  return v;
}

std::string format_double(double v) {
  char buf[32];
  std::to_chars_result r{};
  // Precision 17 always round-trips, so the loop ends there at the latest.
  for (int prec = 1; prec <= 17; ++prec) {
    r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                      prec);
    if (parse_double({buf, r.ptr}) == v) break;
  }
  return {buf, r.ptr};
}

}  // namespace trimgrad::core
