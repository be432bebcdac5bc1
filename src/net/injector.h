// Probabilistic trim/drop injection — the paper's own evaluation mode.
//
// §4: "we simulate the effect of congestion using pre-set random
// probabilistic dropping/trimming, both in the software layer and on our
// SmartNIC." TrimInjector is that software layer: a Bernoulli coin per
// packet, applied directly to an encoded message without running the
// fabric. It can record its decisions into a TrimTranscript (§5.4) and
// replay a previous run's transcript for reproducibility.
#pragma once

#include <cstdint>
#include <vector>

#include "core/codec.h"
#include "core/prng.h"
#include "core/transcript.h"

namespace trimgrad::net {

struct InjectorConfig {
  double trim_rate = 0.0;  ///< P(packet is trimmed)
  double drop_rate = 0.0;  ///< P(packet is lost outright), applied first
  std::uint64_t seed = 2024;
};

struct InjectionStats {
  std::size_t packets = 0;
  std::size_t trimmed = 0;
  std::size_t dropped = 0;
};

class TrimInjector {
 public:
  explicit TrimInjector(InjectorConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

  /// Apply congestion to a message in place: some packets trimmed, dropped
  /// packets removed from the vector. If `record` is non-null, every trim
  /// is logged (drops are logged with level 0xff).
  InjectionStats apply(std::vector<core::GradientPacket>& packets,
                       std::uint64_t epoch,
                       core::TrimTranscript* record = nullptr);

  /// Reproduce a recorded run (§5.4): the coin flips are ignored and the
  /// transcript dictates exactly which packets are trimmed/dropped.
  ///
  /// Throws std::invalid_argument if the (non-empty) transcript has no
  /// events for `epoch` — replaying against the wrong epoch would silently
  /// reproduce the wrong run. An entirely empty transcript is legal (a
  /// recorded run can have zero trims).
  static InjectionStats replay(std::vector<core::GradientPacket>& packets,
                               std::uint64_t epoch,
                               const core::TrimTranscript& transcript);

  const InjectorConfig& config() const noexcept { return cfg_; }

 private:
  InjectorConfig cfg_;
  core::Xoshiro256 rng_;
};

}  // namespace trimgrad::net
