// Little-endian fixed-width fields: the one byte order of every binary
// format here (wire packets and metadata, checkpoint blobs, policy
// feedback records). Floats travel as their IEEE-754 bits.
//
// The put_* writers append to a byte vector. The load_* readers take a
// pointer the caller has already bounds-checked, so each format keeps its
// own checks and error reporting.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace trimgrad::core {

namespace le_detail {

template <typename U>
void put(std::vector<std::uint8_t>& out, U v) {
  for (std::size_t i = 0; i < sizeof(U); ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <typename U>
U load(const std::uint8_t* p) noexcept {
  U v = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i)
    v = static_cast<U>(v | static_cast<U>(U{p[i]} << (8 * i)));
  return v;
}

}  // namespace le_detail

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  le_detail::put(out, v);
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  le_detail::put(out, v);
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  le_detail::put(out, v);
}
inline void put_f32(std::vector<std::uint8_t>& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}
inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

inline std::uint16_t load_u16(const std::uint8_t* p) noexcept {
  return le_detail::load<std::uint16_t>(p);
}
inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return le_detail::load<std::uint32_t>(p);
}
inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  return le_detail::load<std::uint64_t>(p);
}
inline float load_f32(const std::uint8_t* p) noexcept {
  return std::bit_cast<float>(load_u32(p));
}
inline double load_f64(const std::uint8_t* p) noexcept {
  return std::bit_cast<double>(load_u64(p));
}

/// Overwrites the four bytes at `p` with `v` (a checksum field patched in
/// after the bytes it covers were written).
inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (std::size_t i = 0; i < 4; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace trimgrad::core
