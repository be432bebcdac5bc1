#include "net/switch_node.h"

#include "core/metrics.h"
#include "core/prng.h"
#include "net/invariants.h"

namespace trimgrad::net {
namespace {

struct SwitchTelemetry {
  core::Counter forwarded, unroutable;

  static const SwitchTelemetry& get() {
    static const SwitchTelemetry t{
        core::MetricsRegistry::global().counter("net.switch.forwarded"),
        core::MetricsRegistry::global().counter("net.switch.unroutable"),
    };
    return t;
  }
};

}  // namespace

std::ptrdiff_t SwitchNode::egress_for(NodeId dst,
                                      std::uint32_t flow_id) const noexcept {
  const std::vector<std::size_t>* group = nullptr;
  if (dst < routes_.size() && !routes_[dst].empty()) {
    group = &routes_[dst];
  } else if (!default_group_.empty()) {
    group = &default_group_;
  } else {
    return -1;
  }
  if (group->size() == 1) return static_cast<std::ptrdiff_t>((*group)[0]);
  // Per-flow ECMP: deterministic hash keeps a flow on one path.
  const std::uint64_t h = core::mix64(flow_id, dst);
  return static_cast<std::ptrdiff_t>((*group)[h % group->size()]);
}

void SwitchNode::on_frame(Frame&& frame) {
  const std::ptrdiff_t out = egress_for(frame.dst, frame.flow_id);
  if (out < 0) {
    ++unroutable_;
    SwitchTelemetry::get().unroutable.add();
    if (auto* m = sim_.invariant_monitor()) {
      m->resolve_delivery(InvariantMonitor::Outcome::kUnroutable);
    }
    return;
  }
  SwitchTelemetry::get().forwarded.add();
  sim_.transmit(id(), static_cast<std::size_t>(out), std::move(frame));
}

}  // namespace trimgrad::net
