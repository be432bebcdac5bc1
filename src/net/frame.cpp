#include "net/frame.h"

namespace trimgrad::net {

const char* to_string(FrameKind k) noexcept {
  switch (k) {
    case FrameKind::kData: return "data";
    case FrameKind::kAck: return "ack";
    case FrameKind::kNack: return "nack";
    case FrameKind::kMeta: return "meta";
    case FrameKind::kPull: return "pull";
    case FrameKind::kHeartbeat: return "heartbeat";
  }
  return "?";
}

void Frame::trim() {
  if (!trimmable()) return;
  size_bytes = trim_size_bytes;
  trimmed = true;
  if (cargo) {
    // Copy-on-trim: the sender may hold the same packet for retransmission.
    cargo = std::make_shared<const core::GradientPacket>(cargo->trimmed_copy());
  }
}

}  // namespace trimgrad::net
