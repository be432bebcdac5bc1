// Decimal numbers in the text formats (ExperimentSpec, FaultScript, the
// schedule policy's script): one strict parser per number kind and one
// shortest round-trip printer, all locale-independent. The parsers return
// "no value" for anything that is not a plain number in range, so each
// format keeps its own error message.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace trimgrad::core {

/// The whole of `text` as a finite double. Empty text, a leading '+' or
/// space, trailing characters, a value outside double's range, inf and nan
/// give nullopt.
std::optional<double> parse_double(std::string_view text);

/// The whole of `text` as a decimal integer in [0, max]. Empty text, any
/// sign, trailing characters and a value above `max` give nullopt.
std::optional<std::uint64_t> parse_uint(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The shortest "%.Ng" form (C locale) that parses back to exactly `v`, so
/// a serialized format round-trips bit for bit.
std::string format_double(double v);

}  // namespace trimgrad::core
