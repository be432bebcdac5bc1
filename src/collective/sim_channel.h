// SimChannel: transfers run as real flows on the discrete-event fabric.
//
// Ranks are pinned to hosts of a topology built by the caller; each
// TransferRequest becomes a flow whose data frames carry the actual encoded
// gradient packets (trimmable at their §2 trim point) plus one untrimmable
// metadata frame. Trimming happens where it would in deployment: in the
// switch queue, only when the queue actually overflows. Cross traffic can
// share the same fabric.
#pragma once

#include <memory>
#include <string>

#include "collective/channel.h"
#include "collective/world_view.h"
#include "net/host.h"
#include "net/sim.h"
#include "net/transport_registry.h"

namespace trimgrad::collective {

class SimChannel : public Channel {
 public:
  struct Config {
    /// TransportRegistry name: "trim" (paper), "reliable" (NACKs trimmed
    /// arrivals), "pull", or "ecn".
    std::string transport = "trim";
    /// Transport-agnostic overrides (0 keeps each native default).
    net::FlowTuning tuning;
    /// Per-round deadline: if > 0, any flow still in flight this long after
    /// the batch starts is aborted (Delivery::flow_failed) and the round
    /// proceeds with the contributions that arrived. Keeps a dead link or
    /// node from hanging the collective forever.
    net::SimTime round_deadline = 0;
  };

  /// `sim` and `rank_hosts` must outlive the channel. rank_hosts[r] is the
  /// host node carrying rank r.
  SimChannel(net::Simulator& sim, std::vector<net::NodeId> rank_hosts,
             Config cfg);

  std::vector<Delivery> transfer(std::vector<TransferRequest> batch) override;
  int world_size() const override {
    return static_cast<int>(rank_hosts_.size());
  }

  /// The per-delivery counters, enriched with what only the fabric sees,
  /// since the last call: the corrupt frames this channel's flows NACKed,
  /// the largest final DCTCP alpha among them, and the share of depth
  /// samples above net::kHotDepthBytes over its simulator's egress queues.
  core::NetFeedback take_feedback() override;

  net::Simulator& sim() { return sim_; }

  /// Elastic membership: with a view attached, a transfer whose source or
  /// destination rank is not live in the *current* view is refused — it
  /// completes immediately as a failed delivery without putting a single
  /// frame on the fabric. This is the channel-level half of the
  /// "collectives never mix views" rule: a request staged under an old
  /// view cannot leak frames into the new one. nullptr detaches.
  void set_view(const WorldView* view) noexcept { view_ = view; }

 private:
  net::Simulator& sim_;
  std::vector<net::NodeId> rank_hosts_;
  Config cfg_;
  const WorldView* view_ = nullptr;
  std::uint32_t next_flow_id_ = 1 << 20;
  // Queue sample cursors for take_feedback deltas.
  std::uint64_t seen_samples_ = 0;
  std::uint64_t seen_hot_ = 0;
};

}  // namespace trimgrad::collective
