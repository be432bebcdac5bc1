// Frozen bytes of the binary formats: a wire packet, wire metadata, a
// checkpoint blob and a policy feedback record, each built from fixed
// inputs and hashed. All four write their fields through core/le_bytes.h;
// a change there, or to a writer's field order, that moves one byte fails
// here.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/policy.h"
#include "core/wire.h"
#include "ddp/checkpoint.h"

namespace trimgrad::ddp {
namespace {

/// 64-bit FNV-1a over a byte string.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(ByteFormats, PacketBytesAreFrozen) {
  core::GradientPacket pkt;
  pkt.msg_id = 0x01020304u;
  pkt.row_id = 0xa0b0c0d0u;
  pkt.coord_base = 0x00123456u;
  pkt.n_coords = 0x0102;
  pkt.seq = 0xfedc;
  pkt.scheme = core::Scheme::kRHT;
  pkt.p_bits = 1;
  pkt.q_bits = 13;
  for (int i = 0; i < 37; ++i)
    pkt.head_region.push_back(static_cast<std::uint8_t>(7 * i + 1));
  for (int i = 0; i < 301; ++i)
    pkt.tail_region.push_back(static_cast<std::uint8_t>(251 - 3 * i));
  const auto bytes = core::serialize_packet(pkt);
  EXPECT_EQ(bytes.size(), core::kWireHeaderBytes + 37 + 301);
  EXPECT_EQ(fnv1a(bytes), 0xcf96177b75b1325full)
      << std::hex << fnv1a(bytes);
}

TEST(ByteFormats, MetaBytesAreFrozen) {
  core::MessageMeta meta;
  meta.msg_id = 0x11223344u;
  meta.epoch = 0x0102030405060708ull;
  meta.scheme = core::Scheme::kLowRank;
  meta.total_coords = 100000;
  meta.row_len = 4096;
  meta.scalar_scale = -1.5e-3f;
  meta.row_scales = {0.25f, -3.0f, 1e-30f};
  meta.lr_rows = 250;
  meta.lr_cols = 400;
  meta.lr_rank = 0x0304;
  meta.lr_head = 0x0102;
  meta.lr_q = {1.0f, -0.0f, 6.5e7f, -2.75f};
  const auto bytes = core::serialize_meta(meta);
  EXPECT_EQ(fnv1a(bytes), 0x63dc6c1590b14383ull)
      << std::hex << fnv1a(bytes);
}

TEST(ByteFormats, CheckpointBytesAreFrozen) {
  Checkpoint ck;
  ck.rank = 3;
  ck.epoch = 0x0102030405060708ull;
  ck.round = 77;
  ck.view_version = 0xdeadbeefcafef00dull;
  ck.params = {1.0f, -2.5f, 3.25e-8f};
  ck.lr = 0.0375f;
  ck.opt_epoch = 9;
  ck.velocity = {{0.5f}, {}, {-1.0f, 2.0f}};
  ck.residual = {-0.125f, 7.0f};
  ck.augment_rng = {0x1111111111111111ull, 0x2222222222222222ull,
                    0x8000000000000001ull, 0xfedcba9876543210ull};
  ck.policy_state = {0xff, 0x00, 0x7f};
  const auto bytes = ck.to_bytes();
  EXPECT_EQ(fnv1a(bytes), 0x9d435ef84d88191aull)
      << std::hex << fnv1a(bytes);
}

TEST(ByteFormats, FeedbackBytesAreFrozen) {
  core::NetFeedback fb;
  fb.round = 0x0102030405060708ull;
  fb.packets = 1000;
  fb.trimmed = 17;
  fb.dropped = 3;
  fb.retransmits = 0xffffffffffffffffull;
  fb.corrupt_nacks = 1;
  fb.flow_failures = 2;
  fb.wire_bytes = 1u << 31;
  fb.comm_s = 1.25e-3;
  fb.dctcp_alpha = -0.0;
  fb.queue_depth_frac = 0.1;
  std::vector<std::uint8_t> bytes = {0xaa};  // appends after what is there
  core::append_feedback(bytes, fb);
  EXPECT_EQ(bytes.size(), 1u + 11 * 8);
  EXPECT_EQ(fnv1a(bytes), 0xaa5689fc98b0abe2ull)
      << std::hex << fnv1a(bytes);
}

}  // namespace
}  // namespace trimgrad::ddp
