// ExperimentSpec: one declarative description of a training experiment —
// every layer selects its component by name.
//
// A spec names the transport (net::TransportRegistry), the codec
// (core::CodecRegistry), the topology regime, the trim regime, the fault
// script, the seeds, and the thread count, and parses from / serializes to
// a canonical `key=value,key=value` string:
//
//   transport=trim,scheme=rht,topology=inject,trim=0.25,world=4,epochs=10
//
// parse(serialize()) is the identity; unknown keys and unregistered
// transport/scheme names raise std::invalid_argument messages that list
// what *is* registered. The helpers at the bottom project a validated spec
// onto the concrete configs the rest of the stack consumes (ddp::Trainer,
// collective::InjectChannel, collective::SimChannel), so bench drivers and
// examples construct experiments from one string instead of hand-wiring
// four config structs.
#pragma once

#include <cstdint>
#include <string>

#include "collective/inject_channel.h"
#include "collective/sim_channel.h"
#include "ddp/membership.h"
#include "ddp/trainer.h"

namespace trimgrad::ddp {

struct ExperimentSpec {
  // --- components by registry name -----------------------------------
  std::string transport = "trim";  ///< net::TransportRegistry name
  std::string scheme = "rht";      ///< core::CodecRegistry name
  /// "inject": analytic InjectChannel (per-packet trim/drop coins, time
  /// model). "fabric": SimChannel flows on the discrete-event fabric where
  /// trimming happens only when switch queues actually overflow.
  std::string topology = "inject";
  /// Fault script: "none", "corrupt" (bit-flips at corrupt_rate),
  /// "flap" (periodic link flaps), "chaos" (corrupt + flap + straggler),
  /// "elastic" (node kill/restart windows healed by membership — see
  /// bench/bench_soak_elastic.cpp), or "file:<path>" — load a serialized
  /// net::FaultScript and replay it verbatim (the chaos-search shrinker
  /// writes minimal repros in exactly this form).
  std::string faults = "none";

  // --- trim regime ----------------------------------------------------
  double trim = 0.25;     ///< injected trim probability (inject topology)
  double drop = 0.0;      ///< injected outright-loss probability
  double deadline = 0.0;  ///< per-round flow deadline in seconds; 0 = none

  // --- training shape -------------------------------------------------
  int world = 4;
  std::uint64_t epochs = 10;
  std::uint64_t batch = 64;
  double lr = 0.02;

  // --- seeds & parallelism -------------------------------------------
  std::uint64_t seed = 2024;      ///< injector / data seed
  std::uint64_t fault_seed = 1;   ///< keys fault plane + straggler choice
  /// Pool size, at most core::ThreadPool::kMaxThreads; 0 = TRIMGRAD_THREADS
  /// or the hardware count.
  std::uint64_t threads = 0;

  // --- elastic membership (ddp/membership.h) -------------------------
  /// Heartbeat window per round, in milliseconds. 0 = membership off
  /// (the default: no control plane, no view, exactly the old behavior).
  double heartbeat_ms = 0.0;
  /// Consecutive missed heartbeats before eviction.
  std::uint64_t evict_after = 3;
  /// Rounds between per-rank checkpoints; 0 = never checkpoint.
  std::uint64_t ckpt_every = 8;

  // --- compression control plane (core/policy.h) ----------------------
  /// core::PolicyRegistry name: "fixed" (default; the pinned-codec path),
  /// "aimd-trim" (AIMD on congestion pressure), "schedule" (scripted).
  std::string policy = "fixed";
  /// aimd-trim: target trim fraction ("slightly under-compress").
  double policy_target = 0.05;
  /// aimd-trim: tail-depth bounds, both in [1, 31].
  std::uint64_t policy_min_q = 7;
  std::uint64_t policy_max_q = 31;
  /// schedule policy script: ';'-separated "round:codec@q" entries.
  std::string schedule;
  /// inject topology: per-batch data-byte budget; packets past it are
  /// trimmed deterministically from the back of the burst (retransmitted
  /// under transport=reliable). 0 = unlimited — no capacity congestion.
  std::uint64_t capacity = 0;

  bool operator==(const ExperimentSpec&) const = default;

  /// Parse `key=value` pairs separated by commas and/or whitespace.
  /// Missing keys keep their defaults; the result is validate()d.
  /// Throws std::invalid_argument on unknown keys, malformed values, or
  /// unregistered component names (message lists the registered names).
  static ExperimentSpec parse(const std::string& text);

  /// Canonical form: every key, fixed order. parse(serialize()) == *this.
  std::string serialize() const;

  /// Short cell label for sweep tables: "transport=trim,scheme=rht,trim=0.25".
  std::string label() const;

  /// Registry + range checks; throws std::invalid_argument with the list
  /// of registered names when a component name is unknown.
  void validate() const;

  /// True when `faults` is a "file:<path>" reference.
  bool faults_is_file() const noexcept;
  /// The path part of a "file:<path>" faults value ("" otherwise). Load it
  /// with net::FaultScript::load_file; validate() does not touch the disk.
  std::string faults_path() const;

  /// Project onto TrainerConfig (world/batch/epochs/lr/scheme/fault_seed;
  /// codec details beyond the scheme keep TrainerConfig defaults).
  TrainerConfig trainer_config() const;

  /// topology == "inject": the analytic channel. Reliable-baseline
  /// semantics are keyed by the transport name ("reliable" retransmits
  /// trim/drop coins, charging time but not fidelity). Throws for "pull" /
  /// "ecn", which only exist on the fabric.
  collective::InjectChannel::Config inject_channel_config() const;

  /// topology == "fabric": flows via the TransportRegistry.
  collective::SimChannel::Config sim_channel_config() const;

  /// Membership control-plane knobs (heartbeat_ms/evict_after/ckpt_every).
  /// Meaningful when heartbeat_ms > 0; callers construct the Membership
  /// themselves (it needs the fabric's hosts).
  MembershipConfig membership_config() const;

  /// Compression-policy knobs (policy/policy_target/policy_*_q/schedule);
  /// the base codec comes from `scheme`. trainer_config() embeds this, so
  /// most callers never touch it directly.
  core::PolicyConfig policy_config() const;

  /// Resize the global ThreadPool when threads > 0 (no-op otherwise).
  void apply_threads() const;
};

}  // namespace trimgrad::ddp
