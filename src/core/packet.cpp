#include "core/packet.h"

namespace trimgrad::core {

double PacketLayout::trim_ratio() const noexcept {
  const std::size_t n = coords_per_packet();
  const double full = static_cast<double>(full_packet_bytes(n));
  const double trimmed = static_cast<double>(header_bytes + head_region_bytes(n));
  return full > 0.0 ? 1.0 - trimmed / full : 0.0;
}

}  // namespace trimgrad::core
