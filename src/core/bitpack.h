// Bit-level packing for trimmable packet payloads.
//
// §2 of the paper lays out each packet as a run of P-bit "heads" followed by
// a run of Q-bit "tails". Heads and tails are therefore not byte aligned:
// with P = 1 and n = 365 coordinates, the head region is 365 bits (46 bytes
// with padding). BitWriter/BitReader provide MSB-first bit streams over a
// byte buffer so the head region of a packet is exactly ceil(P*n/8) bytes —
// the quantity the switch's trim point is configured from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace trimgrad::core {

/// Number of bytes needed to hold `bits` bits.
constexpr std::size_t bytes_for_bits(std::size_t bits) noexcept {
  return (bits + 7) / 8;
}

/// Appends values of arbitrary bit width (1..64) to a byte vector,
/// MSB-first within each value and within each byte.
class BitWriter {
 public:
  BitWriter() = default;

  /// Append the low `width` bits of `value`. width must be in [1, 64].
  void put(std::uint64_t value, unsigned width);

  /// Append a single bit.
  void put_bit(bool bit) { put(bit ? 1u : 0u, 1); }

  /// Append n values of the same width (1..32) — the bit stream n put()
  /// calls would produce, via a 64-bit accumulator flushing 8 bytes at a
  /// time. The codec tail-region hot path.
  void put_run(const std::uint32_t* values, std::size_t n, unsigned width);

  /// Append n single bits from bool bytes (0 => 0, nonzero => 1) — the bit
  /// stream n put_bit() calls would produce, packed 8 bits per store. The
  /// codec head-region hot path.
  void put_bits8(const std::uint8_t* bits, std::size_t n);

  /// Total number of bits written so far.
  std::size_t bit_count() const noexcept { return bit_count_; }

  /// Pad to a byte boundary with zero bits and return the buffer.
  std::vector<std::uint8_t> finish() &&;

  /// Current buffer size in bytes (including the partially filled byte).
  std::size_t byte_count() const noexcept { return bytes_for_bits(bit_count_); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t bit_count_ = 0;
};

/// Reads values of arbitrary bit width from a byte span, MSB-first.
/// Reading past the end is a programming error (checked via assert in
/// debug builds; callers size-check with bits_remaining()).
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// Read `width` bits (1..64) as an unsigned value.
  std::uint64_t get(unsigned width) noexcept;

  /// Read a single bit.
  bool get_bit() noexcept { return get(1) != 0; }

  /// Read n values of the same width (1..32); inverse of put_run.
  void get_run(std::uint32_t* out, std::size_t n, unsigned width) noexcept;

  /// Read n single bits into bool bytes (0/1); inverse of put_bits8.
  void get_bits8(std::uint8_t* out, std::size_t n) noexcept;

  /// Bits not yet consumed.
  std::size_t bits_remaining() const noexcept {
    return data_.size() * 8 - cursor_;
  }

  /// Skip ahead `bits` bits.
  void skip(std::size_t bits) noexcept { cursor_ += bits; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t cursor_ = 0;  // bit offset from the start of data_
};

/// Pack n values MSB-first at `width` bits each (1..32) into the
/// bytes_for_bits(n * width) bytes at `out`: value i is
/// (word i of `in` >> shift) masked to `width` bits (shift + width <= 32),
/// so the stream equals what n BitWriter::put calls would write, and the
/// unused low bits of a partial last byte are zero. `in` is read as raw
/// native-endian 32-bit words, so the bits of a float array may be packed
/// directly.
void pack_run(const void* in, std::size_t n, unsigned width, unsigned shift,
              std::uint8_t* out) noexcept;

/// Inverse of pack_run with shift 0: read n width-bit values (1..32)
/// MSB-first from the start of `in`, which must hold at least
/// bytes_for_bits(n * width) bytes; reads nothing past them.
void unpack_run(std::span<const std::uint8_t> in, std::size_t n,
                unsigned width, std::uint32_t* out) noexcept;

/// Reinterpret a float's bit pattern as uint32 (bit_cast wrapper).
std::uint32_t float_bits(float v) noexcept;

/// Reinterpret a uint32 bit pattern as a float.
float bits_float(std::uint32_t b) noexcept;

}  // namespace trimgrad::core
