#include "core/bitpack.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "core/simd.h"

namespace trimgrad::core {

namespace {

// Multiply-based 8-bool-bytes <-> 8-bits converters. The multiplier places a
// shifted copy of each input byte so that the wanted bit of each lands in a
// distinct output position (8*di = 9*dj with |di|,|dj| < 8 forces di=dj=0,
// so no two terms collide and no carries occur).
constexpr std::uint64_t kByteOnes = 0x0101010101010101ull;
constexpr std::uint64_t kGatherMsbFirst = 0x8040201008040201ull;
constexpr std::uint64_t kSpreadMsbFirst = 0x0102040810204080ull;

inline std::uint64_t to_be(std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  } else {
    return v;
  }
}

}  // namespace

void pack_run(const void* in, std::size_t n, unsigned width, unsigned shift,
              std::uint8_t* out) noexcept {
  assert(width >= 1 && width <= 32);
  assert(shift + width <= 32);
  if (width == 31 && shift == 0) return simd::pack31(in, n, out);
  // Top-aligned 64-bit accumulator: values are ORed in below the bits
  // already filled; full accumulators flush as one 8-byte store.
  const auto* words = static_cast<const std::uint8_t*>(in);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::uint64_t acc = 0;
  unsigned filled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t word;
    std::memcpy(&word, words + 4 * i, 4);
    const std::uint64_t v = (word >> shift) & mask;
    if (filled + width <= 64) {
      acc |= v << (64 - filled - width);
      filled += width;
      if (filled == 64) {
        const std::uint64_t be = to_be(acc);
        std::memcpy(out, &be, 8);
        out += 8;
        acc = 0;
        filled = 0;
      }
    } else {
      const unsigned hi = 64 - filled;  // bits that still fit
      acc |= v >> (width - hi);
      const std::uint64_t be = to_be(acc);
      std::memcpy(out, &be, 8);
      out += 8;
      filled = width - hi;  // > 0: width == hi lands in the branch above
      acc = v << (64 - filled);
    }
  }
  if (filled) {
    // Trailing partial accumulator: the low bits of the last byte stay zero,
    // exactly like a partially filled BitWriter byte.
    const std::uint64_t be = to_be(acc);
    std::memcpy(out, &be, bytes_for_bits(filled));
  }
}

void unpack_run(std::span<const std::uint8_t> in, std::size_t n,
                unsigned width, std::uint32_t* out) noexcept {
  assert(width >= 1 && width <= 32);
  assert(in.size() >= bytes_for_bits(n * width));
  if (width == 31) return simd::unpack31(in.data(), in.size(), n, out);
  // Top-aligned accumulator. Refills top up with as many whole bytes of an
  // 8-byte load as fit (filled < width <= 32 at refill time, so one load
  // always reaches width); near the end of the input it falls back to one
  // byte at a time, reading only bytes that hold wanted bits.
  std::size_t byte_idx = 0;
  std::uint64_t acc = 0;
  unsigned filled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (filled < width) {
      if (byte_idx + 8 <= in.size()) {
        std::uint64_t word;
        std::memcpy(&word, in.data() + byte_idx, 8);
        word = to_be(word);
        // Consume only whole bytes: the load's tail bits belong to bytes a
        // later refill will read again, so mask them out of the merge.
        const unsigned add = (64 - filled) & ~7u;
        acc |= (word >> filled) & (~std::uint64_t{0} << (64 - filled - add));
        byte_idx += add / 8;
        filled += add;
      } else {
        do {
          acc |= static_cast<std::uint64_t>(in[byte_idx++]) << (56 - filled);
          filled += 8;
        } while (filled < width);
      }
    }
    out[i] = static_cast<std::uint32_t>(acc >> (64 - width));
    acc <<= width;
    filled -= width;
  }
}

void BitWriter::put(std::uint64_t value, unsigned width) {
  assert(width >= 1 && width <= 64);
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  // Bulk fast path: a byte-aligned write of a whole number of bytes stores
  // them in one shot — top-align the value so a byte swap yields the
  // MSB-first byte order, then memcpy the leading width/8 bytes. This covers
  // the head/tail packetization hot cases (32-bit baseline and low-rank
  // floats, 8/16-bit tails).
  if (bit_count_ % 8 == 0 && width % 8 == 0) {
    const unsigned nbytes = width / 8;
    const std::size_t at = buf_.size();
    buf_.resize(at + nbytes);
    const std::uint64_t be = to_be(value << (64 - width));
    std::memcpy(buf_.data() + at, &be, nbytes);
    bit_count_ += width;
    return;
  }
  // Write bits from the most significant end of the value.
  unsigned remaining = width;
  while (remaining > 0) {
    const unsigned bit_in_byte = bit_count_ % 8;
    if (bit_in_byte == 0) buf_.push_back(0);
    const unsigned space = 8 - bit_in_byte;
    const unsigned take = remaining < space ? remaining : space;
    const std::uint64_t chunk = (value >> (remaining - take)) &
                                ((std::uint64_t{1} << take) - 1);
    buf_.back() |= static_cast<std::uint8_t>(chunk << (space - take));
    bit_count_ += take;
    remaining -= take;
  }
}

void BitWriter::put_run(const std::uint32_t* values, std::size_t n,
                        unsigned width) {
  assert(width >= 1 && width <= 32);
  if (n == 0) return;
  if (bit_count_ % 8 != 0) {
    for (std::size_t i = 0; i < n; ++i) put(values[i], width);
    return;
  }
  const std::size_t at = buf_.size();
  buf_.resize(at + bytes_for_bits(n * width));
  pack_run(values, n, width, 0, buf_.data() + at);
  bit_count_ += n * width;
}

void BitWriter::put_bits8(const std::uint8_t* bits, std::size_t n) {
  std::size_t i = 0;
  if (bit_count_ % 8 == 0) {
    buf_.reserve(buf_.size() + bytes_for_bits(n));
    for (; i + 8 <= n; i += 8) {
      std::uint64_t x;
      std::memcpy(&x, bits + i, 8);
      // Normalize nonzero bytes to 1 (the gather multiply needs clean 0/1
      // lanes): bit 0 of each byte becomes the OR of that byte's bits —
      // offsets 1+2+4 compose to cover all 7, and cross-byte leakage only
      // reaches bits the kByteOnes mask discards.
      x |= x >> 1;
      x |= x >> 2;
      x |= x >> 4;
      x &= kByteOnes;
      buf_.push_back(static_cast<std::uint8_t>((x * kGatherMsbFirst) >> 56));
    }
    bit_count_ += i;
  }
  for (; i < n; ++i) put_bit(bits[i] != 0);
}

std::vector<std::uint8_t> BitWriter::finish() && {
  return std::move(buf_);
}

std::uint64_t BitReader::get(unsigned width) noexcept {
  assert(width >= 1 && width <= 64);
  assert(bits_remaining() >= width);
  // Bulk fast path mirroring BitWriter::put: byte-aligned whole-byte reads
  // load up to 8 bytes at once and byte-swap into value order.
  if (cursor_ % 8 == 0 && width % 8 == 0) {
    const unsigned nbytes = width / 8;
    std::uint64_t word = 0;
    std::memcpy(&word, data_.data() + cursor_ / 8, nbytes);
    cursor_ += width;
    return to_be(word) >> (64 - width);
  }
  std::uint64_t out = 0;
  unsigned remaining = width;
  while (remaining > 0) {
    const std::size_t byte_idx = cursor_ / 8;
    const unsigned bit_in_byte = cursor_ % 8;
    const unsigned avail = 8 - bit_in_byte;
    const unsigned take = remaining < avail ? remaining : avail;
    const std::uint8_t byte = data_[byte_idx];
    const std::uint64_t chunk =
        (byte >> (avail - take)) & ((std::uint64_t{1} << take) - 1);
    out = (out << take) | chunk;
    cursor_ += take;
    remaining -= take;
  }
  return out;
}

void BitReader::get_run(std::uint32_t* out, std::size_t n,
                        unsigned width) noexcept {
  assert(width >= 1 && width <= 32);
  assert(bits_remaining() >= n * width);
  if (n == 0) return;
  if (cursor_ % 8 != 0) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = static_cast<std::uint32_t>(get(width));
    return;
  }
  unpack_run(data_.subspan(cursor_ / 8), n, width, out);
  cursor_ += n * width;
}

void BitReader::get_bits8(std::uint8_t* out, std::size_t n) noexcept {
  assert(bits_remaining() >= n);
  std::size_t i = 0;
  if (cursor_ % 8 == 0) {
    std::size_t byte_idx = cursor_ / 8;
    for (; i + 8 <= n; i += 8) {
      const std::uint64_t spread =
          (data_[byte_idx++] * kByteOnes) & kSpreadMsbFirst;
      const std::uint64_t bytes =
          ((spread + 0x7f7f7f7f7f7f7f7full) >> 7) & kByteOnes;
      std::memcpy(out + i, &bytes, 8);
    }
    cursor_ += i;
  }
  for (; i < n; ++i) out[i] = get_bit() ? 1 : 0;
}

std::uint32_t float_bits(float v) noexcept {
  return std::bit_cast<std::uint32_t>(v);
}

float bits_float(std::uint32_t b) noexcept {
  return std::bit_cast<float>(b);
}

}  // namespace trimgrad::core
