#include "ddp/checkpoint.h"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/le_bytes.h"
#include "core/wire.h"

namespace trimgrad::ddp {

namespace {

// "TGCK" little-endian: TrimGrad ChecKpoint.
constexpr std::uint32_t kMagic = 0x4b434754;

void put_floats(std::vector<std::uint8_t>& out, const std::vector<float>& v) {
  core::put_u64(out, v.size());
  for (float f : v) core::put_f32(out, f);
}

/// Bounds-checked little-endian reader over the blob.
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  [[noreturn]] void fail_truncated() const {
    throw std::runtime_error("Checkpoint: blob truncated at byte " +
                             std::to_string(pos));
  }

  /// Start of the next n bytes; throws when fewer remain.
  const std::uint8_t* take(std::size_t n) {
    if (data.size() - pos < n) fail_truncated();
    const std::uint8_t* p = data.subspan(pos, n).data();
    pos += n;
    return p;
  }

  std::uint32_t u32() { return core::load_u32(take(4)); }
  std::uint64_t u64() { return core::load_u64(take(8)); }
  float f32() { return core::load_f32(take(4)); }

  std::vector<float> floats() {
    const std::uint64_t n = u64();
    // A length that cannot fit in the remaining bytes is truncation (or a
    // corrupted length field); reject before allocating.
    if ((data.size() - pos) / 4 < n) fail_truncated();
    std::vector<float> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(f32());
    return v;
  }
};

}  // namespace

std::vector<std::uint8_t> Checkpoint::to_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(64 + 4 * (params.size() + residual.size()));
  core::put_u32(out, kMagic);
  core::put_u32(out, kFormatVersion);
  core::put_u32(out, static_cast<std::uint32_t>(rank));
  core::put_u64(out, epoch);
  core::put_u64(out, round);
  core::put_u64(out, view_version);
  core::put_f32(out, lr);
  core::put_u64(out, opt_epoch);
  for (std::uint64_t w : augment_rng) core::put_u64(out, w);
  put_floats(out, params);
  core::put_u64(out, velocity.size());
  for (const auto& buf : velocity) put_floats(out, buf);
  put_floats(out, residual);
  core::put_u64(out, policy_state.size());
  out.insert(out.end(), policy_state.begin(), policy_state.end());
  core::put_u32(out, core::crc32c({out.data(), out.size()}));
  return out;
}

Checkpoint Checkpoint::from_bytes(std::span<const std::uint8_t> blob) {
  if (blob.size() < 8) throw std::runtime_error("Checkpoint: blob too short");
  Reader rd{blob.first(blob.size() - 4)};  // body; trailing 4 bytes are CRC

  if (rd.u32() != kMagic)
    throw std::runtime_error("Checkpoint: bad magic (not a checkpoint blob)");
  const std::uint32_t version = rd.u32();
  if (version < 1 || version > kFormatVersion)
    throw std::runtime_error("Checkpoint: unsupported format version " +
                             std::to_string(version));

  // Verify the trailing CRC before trusting any length-prefixed section.
  const std::uint32_t want = core::crc32c(blob.first(blob.size() - 4));
  if (want != core::load_u32(blob.last(4).data()))
    throw std::runtime_error("Checkpoint: CRC mismatch (blob damaged)");

  Checkpoint ck;
  ck.rank = static_cast<int>(rd.u32());
  ck.epoch = rd.u64();
  ck.round = rd.u64();
  ck.view_version = rd.u64();
  ck.lr = rd.f32();
  ck.opt_epoch = rd.u64();
  for (auto& w : ck.augment_rng) w = rd.u64();
  ck.params = rd.floats();
  const std::uint64_t nbufs = rd.u64();
  if ((rd.data.size() - rd.pos) / 8 < nbufs) rd.fail_truncated();
  ck.velocity.reserve(static_cast<std::size_t>(nbufs));
  for (std::uint64_t i = 0; i < nbufs; ++i) ck.velocity.push_back(rd.floats());
  ck.residual = rd.floats();
  if (version >= 2) {
    const std::uint64_t nb = rd.u64();
    if (rd.data.size() - rd.pos < nb) rd.fail_truncated();
    const std::uint8_t* p = rd.take(static_cast<std::size_t>(nb));
    ck.policy_state.assign(p, p + nb);
  }
  if (rd.pos != rd.data.size())
    throw std::runtime_error("Checkpoint: trailing garbage after payload");
  return ck;
}

void Checkpoint::save(std::ostream& os) const {
  const auto bytes = to_bytes();
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

Checkpoint Checkpoint::load(std::istream& is) {
  std::vector<std::uint8_t> bytes;
  char c;
  while (is.get(c)) bytes.push_back(static_cast<std::uint8_t>(c));
  return from_bytes(bytes);
}

}  // namespace trimgrad::ddp
