// The shared decimal codec of the text formats: strict parsing (whole
// string, no sign on integers, finite doubles only) and the shortest
// "%.Ng" printing that round-trips.
#include "core/number_text.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/prng.h"

namespace trimgrad::core {
namespace {

TEST(NumberText, ParseUintTakesOnlyPlainDigitsInRange) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_uint("256", 256), 256u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1.0", "0x10", "1e3",
                          "18446744073709551616"})
    EXPECT_FALSE(parse_uint(bad).has_value()) << bad;
  EXPECT_FALSE(parse_uint("257", 256).has_value());
}

TEST(NumberText, ParseDoubleTakesOnlyFiniteDecimals) {
  EXPECT_EQ(parse_double("0.25"), 0.25);
  EXPECT_EQ(parse_double("-3"), -3.0);
  EXPECT_EQ(parse_double("1e-05"), 1e-5);
  EXPECT_EQ(parse_double(".5"), 0.5);
  for (const char* bad : {"", "nan", "-nan", "inf", "-inf", "1e400", "+1",
                          " 1", "1 ", "0.5x", "0x1p3", "--1"})
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
}

TEST(NumberText, FormatDoubleIsTheShortestRoundTrippingPercentG) {
  // The serializers printed with snprintf("%.*g") at rising precision
  // until strtod gave the bits back; the codec must print the same text.
  Xoshiro256 rng(7);
  for (int i = 0; i < 20000; ++i) {
    double v;
    if (i % 2 == 0) {
      const std::uint64_t bits = rng();
      std::memcpy(&v, &bits, sizeof v);
      if (!std::isfinite(v)) continue;
    } else {
      v = static_cast<double>(rng.below(1000000)) * 1e-6;
    }
    char want[40];
    for (int prec = 1; prec <= 17; ++prec) {
      std::snprintf(want, sizeof want, "%.*g", prec, v);
      if (std::strtod(want, nullptr) == v) break;
    }
    const std::string got = format_double(v);
    EXPECT_EQ(got, want);
    EXPECT_EQ(parse_double(got), v) << got;
  }
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(1e-6), "1e-06");
  EXPECT_EQ(format_double(-0.0), "-0");
}

}  // namespace
}  // namespace trimgrad::core
