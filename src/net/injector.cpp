#include "net/injector.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace trimgrad::net {

namespace {
constexpr std::uint8_t kDropLevel = 0xff;
}

InjectionStats TrimInjector::apply(std::vector<core::GradientPacket>& packets,
                                   std::uint64_t epoch,
                                   core::TrimTranscript* record) {
  InjectionStats st;
  st.packets = packets.size();
  std::vector<core::GradientPacket> kept;
  kept.reserve(packets.size());
  for (auto& pkt : packets) {
    if (rng_.bernoulli(cfg_.drop_rate)) {
      ++st.dropped;
      if (record) record->record(epoch, pkt.msg_id, pkt.seq, kDropLevel);
      continue;
    }
    if (rng_.bernoulli(cfg_.trim_rate)) {
      pkt.trim();
      ++st.trimmed;
      if (record) record->record(epoch, pkt.msg_id, pkt.seq, 1);
    }
    kept.push_back(std::move(pkt));
  }
  packets = std::move(kept);
  return st;
}

InjectionStats TrimInjector::replay(std::vector<core::GradientPacket>& packets,
                                    std::uint64_t epoch,
                                    const core::TrimTranscript& transcript) {
  if (transcript.size() > 0 && !transcript.contains_epoch(epoch)) {
    throw std::invalid_argument(
        "TrimInjector::replay: transcript has no events for epoch " +
        std::to_string(epoch) + " — wrong transcript for this run?");
  }
  InjectionStats st;
  st.packets = packets.size();
  std::vector<core::GradientPacket> kept;
  kept.reserve(packets.size());
  for (auto& pkt : packets) {
    const auto level = transcript.lookup(epoch, pkt.msg_id, pkt.seq);
    if (level.has_value() && *level == kDropLevel) {
      ++st.dropped;
      continue;
    }
    if (level.has_value()) {
      pkt.trim();
      ++st.trimmed;
    }
    kept.push_back(std::move(pkt));
  }
  packets = std::move(kept);
  return st;
}

}  // namespace trimgrad::net
