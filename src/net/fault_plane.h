// Deterministic fault injection for the simulated fabric.
//
// The paper's claim is that trim-aware training degrades gracefully where
// reliable transports collapse (§1, §4); queue overflow is only one of the
// adversities that argument has to survive. The fault plane adds the rest:
// link failures and degradations, per-link Bernoulli frame corruption, and
// whole-node (switch) failures — all scripted against the simulated clock
// and keyed off a single seed, so a chaos run is bit-replayable.
//
// Determinism contract: every random decision is a *stateless* coin,
//
//   u01(mix64(mix64(seed, frame_id), mix64(node, port))) < rate
//
// so the outcome for a given frame on a given hop does not depend on how
// many other frames were examined first. Combined with the single-threaded
// event queue (FIFO tiebreak on equal times), two runs with the same seed
// and schedule make identical decisions — the FaultLog of one run compares
// equal to the other's, the same way TrimTranscript replays trims.
//
// Scheduled faults are intervals on the sim clock, evaluated statelessly at
// each hop (no toggle events), so attaching the plane never perturbs event
// ordering of the fault-free portions of a run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "core/prng.h"
#include "net/sim.h"

namespace trimgrad::net {

/// One link outage or degradation window on a directed port.
/// `bandwidth_scale == 0` takes the link hard down for the window: frames
/// queued behind it are flushed (lost with the link), new transmissions are
/// refused. A positive scale keeps the link up but multiplies bandwidth by
/// `bandwidth_scale` and latency by `latency_scale` (brown-out).
/// `period > 0` repeats the window `repeats` times, `period` apart — the
/// classic link flap.
struct LinkFault {
  NodeId node = kInvalidNode;
  std::size_t port = 0;
  SimTime start = 0;
  SimTime duration = 0;
  double bandwidth_scale = 0.0;
  double latency_scale = 1.0;
  SimTime period = 0;
  std::size_t repeats = 1;

  friend bool operator==(const LinkFault&, const LinkFault&) = default;

  /// True when `now` falls inside one of the fault's windows.
  bool active_at(SimTime now) const noexcept;
};

/// A node (host or switch) is dead for the window: frames addressed to it
/// are lost in flight, and it originates nothing.
struct NodeFault {
  NodeId node = kInvalidNode;
  SimTime start = 0;
  SimTime duration = 0;
  SimTime period = 0;
  std::size_t repeats = 1;

  friend bool operator==(const NodeFault&, const NodeFault&) = default;

  bool active_at(SimTime now) const noexcept;
};

/// Per-port corruption-rate override (wins over the global rate for
/// frames leaving this port).
struct CorruptRule {
  NodeId node = kInvalidNode;
  std::size_t port = 0;
  double rate = 0.0;

  friend bool operator==(const CorruptRule&, const CorruptRule&) = default;
};

struct FaultPlaneConfig {
  std::uint64_t seed = 1;
  /// Global Bernoulli corruption probability per data frame per hop.
  double corrupt_rate = 0.0;
  std::vector<CorruptRule> corrupt_overrides;
  std::vector<LinkFault> link_faults;
  std::vector<NodeFault> node_faults;

  friend bool operator==(const FaultPlaneConfig&,
                         const FaultPlaneConfig&) = default;
};

/// One fault decision, recorded as it is made. The log is the fault-plane
/// analogue of TrimTranscript: two runs with identical seeds and schedules
/// produce identical logs, which is how the chaos tests pin replayability.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kLinkRefused = 0,  ///< transmit refused: origin link down
    kQueueFlushed = 1, ///< frame flushed from a queue behind a dead link
    kNodeDrop = 2,     ///< frame lost: origin or destination node dead
    kCorrupt = 3,      ///< frame payload mangled on a hop
  };
  Kind kind = Kind::kLinkRefused;
  SimTime time = 0;
  NodeId node = kInvalidNode;
  std::size_t port = 0;
  std::uint64_t frame_id = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

const char* to_string(FaultEvent::Kind k) noexcept;

class FaultLog {
 public:
  void record(FaultEvent ev) { events_.push_back(ev); }

  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<FaultEvent>& events() const noexcept { return events_; }

  /// Text form: one "kind time node port frame_id" line per event.
  void save(std::ostream& os) const;
  static FaultLog load(std::istream& is);

  /// Copy with events in canonical (time, frame_id, kind, node, port) order.
  /// On a sharded simulator the *append* order of the log follows worker
  /// interleaving even though the *set* of decisions is deterministic;
  /// cross-mode comparisons go through this normal form.
  FaultLog sorted() const;

  friend bool operator==(const FaultLog& a, const FaultLog& b) {
    return a.events_ == b.events_;
  }

 private:
  std::vector<FaultEvent> events_;
};

/// The fault plane itself. Attach to a Simulator with set_fault_plane();
/// the simulator consults it at transmit, dequeue, and delivery time. Must
/// outlive the simulator runs it is attached to.
class FaultPlane {
 public:
  explicit FaultPlane(FaultPlaneConfig cfg);

  /// False while a hard-down LinkFault window covers (node, port).
  bool link_up(NodeId node, std::size_t port, SimTime now) const noexcept;

  /// False while a NodeFault window covers the node.
  bool node_up(NodeId node, SimTime now) const noexcept;

  /// The link spec after any active degradation windows are applied.
  LinkSpec effective_link(NodeId node, std::size_t port, SimTime now,
                          const LinkSpec& base) const noexcept;

  /// Flip the stateless corruption coin for a data frame leaving (node,
  /// port). On a hit the frame is marked corrupted — and, when it carries
  /// cargo, one payload byte is actually flipped so a receiver that ignored
  /// the checksum would aggregate garbage. Returns true on a hit.
  bool maybe_corrupt(NodeId node, std::size_t port, SimTime now, Frame& frame);

  /// Bookkeeping hooks the simulator calls when it drops on our behalf.
  void note_link_refused(NodeId node, std::size_t port, SimTime now,
                         std::uint64_t frame_id);
  void note_queue_flushed(NodeId node, std::size_t port, SimTime now,
                          std::uint64_t frame_id);
  void note_node_drop(NodeId node, SimTime now, std::uint64_t frame_id);

  const FaultLog& log() const noexcept { return log_; }
  const FaultPlaneConfig& config() const noexcept { return cfg_; }

 private:
  double corrupt_rate_for(NodeId node, std::size_t port) const noexcept;

  FaultPlaneConfig cfg_;
  FaultLog log_;
  /// Guards log_ appends: on a sharded simulator fault decisions are made
  /// concurrently from domain workers. Decisions themselves are stateless
  /// coins, so the lock only serializes bookkeeping, never outcomes.
  std::mutex log_mu_;
};

/// Receivers call this when a checksum mismatch (frame.corrupted) stops a
/// mangled frame from being delivered; counted as net.fault.corrupt_detected.
void count_corrupt_detected();

/// Deterministic straggler schedule for the DDP layer: one slow rank per
/// epoch, chosen by a stateless mix of (seed, epoch). `factor` multiplies
/// the straggler's compute time; 1.0 disables the schedule.
struct StragglerSchedule {
  std::uint64_t seed = 0;
  double factor = 1.0;

  int straggler_rank(std::uint64_t epoch, int world) const noexcept {
    return static_cast<int>(core::mix64(seed, epoch) %
                            static_cast<std::uint64_t>(world));
  }
  bool enabled() const noexcept { return factor > 1.0; }
};

}  // namespace trimgrad::net
