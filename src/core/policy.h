// Per-round compression control plane (paper §5.3, closed).
//
// A run used to pin one codec and one tail depth for its whole life; the
// controller the paper implies — re-tune compression against live congestion
// signals, just in time — never closed the loop. This module is that loop's
// decision layer:
//
//  * `NetFeedback` — a deterministic per-round snapshot of what the fabric
//    did to the last round's packets (trims, drops, retransmits, corrupt
//    NACKs, DCTCP alpha, queue-depth pressure), assembled by the collective
//    Channel from counts of its own run (and per-flow state read after the
//    run), so the snapshot is bit-identical across TRIMGRAD_THREADS.
//  * `CompressionPolicy` — decides, before each round, which registered
//    packet-train codec to encode with and at what tail depth Q. Decisions
//    are pure functions of (policy state, round, feedback): two runs that
//    feed identical feedback replay identical decision sequences.
//  * `PolicyRegistry` — string-keyed factories, mirroring CodecRegistry /
//    TransportRegistry so an ExperimentSpec can validate `policy=` names
//    and error with the registered list:
//      - "fixed"     — the old behaviour: one codec, one Q, forever.
//      - "aimd-trim" — wraps core::AdaptiveQController: AIMD on observed
//        congestion pressure, targeting a small positive trim rate
//        ("slightly under-compress and over-send", §5.3).
//      - "schedule"  — scripted switches: "0:rht@31;8:sd@15" applies
//        each entry from its round onward (ablations, regression repros).
//
// Policy state serializes to a byte blob so checkpoints can capture the
// controller alongside optimizer/residual state and a restart replays the
// same decisions.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/adaptive.h"

namespace trimgrad::core {

/// What the network did to one round's traffic. Assembled by the Channel
/// (collective/channel.h) from per-delivery counters plus, on the fabric,
/// its own flows and queues; consumed by CompressionPolicy::decide.
struct NetFeedback {
  std::uint64_t round = 0;        ///< the round this snapshot describes
  std::uint64_t packets = 0;      ///< data packets offered to the fabric
  std::uint64_t trimmed = 0;      ///< packets the switch/injector trimmed
  std::uint64_t dropped = 0;      ///< packets lost outright
  std::uint64_t retransmits = 0;  ///< reliable-transport resends
  std::uint64_t corrupt_nacks = 0;  ///< corrupt frames detected (NACKed)
  std::uint64_t flow_failures = 0;  ///< flows that gave up (budget/deadline)
  std::uint64_t wire_bytes = 0;
  double comm_s = 0.0;            ///< simulated comm time of the round
  double dctcp_alpha = 0.0;  ///< largest final DCTCP alpha of the round's flows
  /// Share of the round's queue-depth samples above net::kHotDepthBytes.
  double queue_depth_frac = 0.0;

  double trim_rate() const noexcept;
  double drop_rate() const noexcept;
  double retransmit_rate() const noexcept;
  /// Scalar congestion pressure in [0, 1]: trim + drop + retransmit rates
  /// plus half-weighted ECN alpha and queue-depth pressure, saturated.
  double pressure() const noexcept;

  friend bool operator==(const NetFeedback&, const NetFeedback&) = default;
};

/// Byte-exact little-endian serialization (doubles as IEEE-754 bit
/// patterns), appended to `out` — checkpoints carry the last feedback so a
/// restart resumes the control loop mid-conversation.
void append_feedback(std::vector<std::uint8_t>& out, const NetFeedback& fb);
/// Inverse of append_feedback; throws std::runtime_error on truncation.
NetFeedback parse_feedback(std::span<const std::uint8_t> bytes);

/// One decision: the registered packet-train codec to encode the next round
/// with, and the tail depth to encode at.
struct PolicyDecision {
  std::string codec = "rht";
  unsigned q_bits = 31;

  friend bool operator==(const PolicyDecision&, const PolicyDecision&) =
      default;
};

/// "rht@31" — for logs, decision digests, and schedule scripts.
std::string to_string(const PolicyDecision& d);

/// Knobs consumed by the built-in policies. `codec`/`q_bits` seed the
/// action space: the fixed policy returns them verbatim, aimd-trim keeps
/// the codec and adapts Q, schedule falls back to them before its first
/// entry.
struct PolicyConfig {
  std::string policy = "fixed";  ///< PolicyRegistry name
  std::string codec = "rht";     ///< base packet-train codec name
  unsigned q_bits = 31;          ///< base tail depth
  AdaptiveQConfig aimd{};        ///< aimd-trim controller knobs
  /// schedule policy script: ';'-separated "round:codec@q" entries, each
  /// applying from its round onward. Example: "0:rht@31;8:sd@15".
  std::string schedule;
};

class CompressionPolicy {
 public:
  virtual ~CompressionPolicy() = default;

  virtual const char* name() const noexcept = 0;

  /// Decide the codec for `round`. `prev` is the feedback of round − 1
  /// (a zeroed snapshot for round 0). May mutate controller state; must be
  /// deterministic in (state, round, prev).
  virtual PolicyDecision decide(std::uint64_t round,
                                const NetFeedback& prev) = 0;

  /// Serialize mutable controller state. Stateless policies return {}.
  virtual std::vector<std::uint8_t> state() const { return {}; }
  /// Restore serialized state; throws std::runtime_error on a malformed
  /// blob (same loud-failure discipline as ddp::Checkpoint).
  virtual void restore(std::span<const std::uint8_t> blob);
};

class PolicyRegistry {
 public:
  struct PolicyInfo {
    std::string name;
    const char* summary = "";
    std::unique_ptr<CompressionPolicy> (*make)(const PolicyConfig&) = nullptr;
  };

  /// The process-wide registry with the built-in policies.
  static const PolicyRegistry& global();

  /// nullptr when `name` is not registered.
  const PolicyInfo* find(const std::string& name) const;
  /// Throws std::invalid_argument listing the registered names.
  const PolicyInfo& at(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// Construct the policy named by cfg.policy. Validates cfg.codec (and
  /// every codec a schedule script names) against CodecRegistry — throws
  /// std::invalid_argument listing registered names on any unknown name.
  std::unique_ptr<CompressionPolicy> make(const PolicyConfig& cfg) const;

  void add(PolicyInfo info);

 private:
  std::vector<PolicyInfo> policies_;
};

}  // namespace trimgrad::core
