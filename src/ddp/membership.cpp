#include "ddp/membership.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/metrics.h"
#include "net/invariants.h"

namespace trimgrad::ddp {

namespace {
struct MembershipTelemetry {
  core::Counter evictions, rejoins, heartbeat_misses, stale_heartbeats;

  static const MembershipTelemetry& get() {
    auto& reg = core::MetricsRegistry::global();
    static const MembershipTelemetry t{
        reg.counter("net.membership.evictions"),
        reg.counter("net.membership.rejoins"),
        reg.counter("net.membership.heartbeat_misses"),
        reg.counter("net.membership.stale_heartbeats"),
    };
    return t;
  }
};
}  // namespace

/// Terminates heartbeat frames at the coordinator's host. Arrivals are
/// collected per window; poll() consumes and clears them.
class Membership::HeartbeatSink : public net::FlowEndpoint {
 public:
  void on_frame(net::Frame&& frame) override {
    if (frame.kind != net::FrameKind::kHeartbeat) return;
    heard_.push_back({frame.hb_rank, frame.hb_view});
  }

  struct Arrival {
    std::uint32_t rank;
    std::uint64_t view;
  };
  std::vector<Arrival> take() { return std::exchange(heard_, {}); }

 private:
  std::vector<Arrival> heard_;
};

Membership::Membership(net::Simulator& sim,
                       std::vector<net::Host*> rank_hosts,
                       MembershipConfig cfg)
    : sim_(sim),
      hosts_(std::move(rank_hosts)),
      cfg_(std::move(cfg)),
      view_(collective::WorldView::full(static_cast<int>(hosts_.size()))),
      sink_(std::make_unique<HeartbeatSink>()),
      agent_view_(hosts_.size(), 0),
      misses_(hosts_.size(), 0),
      evicted_at_(hosts_.size(), -1.0),
      ckpt_blobs_(hosts_.size()) {
  assert(hosts_.size() >= 2);
  assert(cfg_.coordinator >= 0 &&
         static_cast<std::size_t>(cfg_.coordinator) < hosts_.size());
  assert(cfg_.evict_after >= 1);
  assert(cfg_.heartbeat_s > 0);
  net::TransportRegistry::global().at(cfg_.fetch_transport);  // fail fast
  hosts_[static_cast<std::size_t>(cfg_.coordinator)]->bind(kHeartbeatFlowId,
                                                           sink_.get());
}

Membership::~Membership() {
  hosts_[static_cast<std::size_t>(cfg_.coordinator)]->unbind(
      kHeartbeatFlowId);
}

PollResult Membership::poll(std::uint64_t round) {
  const auto& tel = MembershipTelemetry::get();
  const auto coord = static_cast<std::size_t>(cfg_.coordinator);
  const net::NodeId coord_host = hosts_[coord]->id();

  // Live ranks' agents track the real view (they participate in every
  // round); evicted ranks keep whatever they last saw.
  for (std::size_t r = 0; r < hosts_.size(); ++r) {
    if (view_.is_live(static_cast<int>(r))) agent_view_[r] = view_.version;
  }

  // Every non-coordinator rank attempts a heartbeat — a dead host's frame
  // is dropped by the fault plane at transmit, which is the signal.
  ++hb_seq_;
  for (std::size_t r = 0; r < hosts_.size(); ++r) {
    if (r == coord) continue;
    net::Frame hb;
    hb.id = sim_.next_frame_id();
    hb.src = hosts_[r]->id();
    hb.dst = coord_host;
    hb.flow_id = kHeartbeatFlowId;
    hb.seq = hb_seq_;
    hb.kind = net::FrameKind::kHeartbeat;
    hb.size_bytes = net::kControlFrameBytes;
    hb.hb_rank = static_cast<std::uint32_t>(r);
    hb.hb_view = agent_view_[r];
    hosts_[r]->send(hb);
  }
  sim_.run_until(sim_.now() + cfg_.heartbeat_s);

  // Tally the window. A heartbeat stamped with the current view counts as
  // liveness; a stale stamp means the sender missed at least one view
  // change — i.e. it was evicted and has come back.
  std::vector<std::uint8_t> heard_current(hosts_.size(), 0);
  std::vector<std::uint8_t> heard_stale(hosts_.size(), 0);
  for (const auto& a : sink_->take()) {
    if (a.rank >= hosts_.size()) continue;
    if (a.view == view_.version) {
      heard_current[a.rank] = 1;
    } else {
      heard_stale[a.rank] = 1;
    }
  }

  PollResult result;
  for (std::size_t r = 0; r < hosts_.size(); ++r) {
    const int rank = static_cast<int>(r);
    if (r == coord) continue;
    if (view_.is_live(rank)) {
      if (heard_current[r]) {
        misses_[r] = 0;
        continue;
      }
      ++misses_[r];
      ++misses_total_;
      tel.heartbeat_misses.add();
      if (misses_[r] >= cfg_.evict_after) {
        view_.evict(rank);
        evicted_at_[r] = sim_.now();
        ++evictions_;
        tel.evictions.add();
        events_.push_back({MembershipEvent::Kind::kEvict, sim_.now(), rank,
                           view_.version, round});
        result.evicted.push_back(rank);
        if (monitor_ != nullptr) {
          monitor_->on_view_version(view_.version, sim_.now());
        }
      }
    } else if (heard_stale[r] || heard_current[r]) {
      // An evicted rank we can hear again: it survived its fault window
      // and is asking back in (its view stamp is stale by construction —
      // eviction itself bumped the version past what it knows).
      tel.stale_heartbeats.add();
      result.rejoin_ready.push_back(rank);
    }
  }
  return result;
}

FetchResult Membership::fetch_params(int from_rank, int to_rank,
                                     std::size_t param_floats) {
  assert(view_.is_live(from_rank));
  const net::Transport& transport =
      net::TransportRegistry::global().at(cfg_.fetch_transport);

  const std::size_t total_bytes = param_floats * sizeof(float);
  const std::size_t frame_bytes =
      std::max<std::size_t>(cfg_.fetch_frame_bytes, 64);
  std::vector<net::SendItem> items;
  items.reserve(total_bytes / frame_bytes + 1);
  for (std::size_t off = 0; off < total_bytes; off += frame_bytes) {
    net::SendItem it;
    it.size_bytes = std::min(frame_bytes, total_bytes - off);
    it.trim_size_bytes = 0;  // a model snapshot must arrive bit-exact
    items.push_back(it);
  }
  if (items.empty()) items.push_back({64, 0, nullptr});

  FetchResult out;
  const net::SimTime t0 = sim_.now();
  net::FlowOptions options;
  options.expected_packets = items.size();
  auto flow = transport.make_flow(
      sim_, hosts_.at(static_cast<std::size_t>(from_rank))->id(),
      hosts_.at(static_cast<std::size_t>(to_rank))->id(), next_fetch_flow_++,
      cfg_.fetch_tuning, std::move(options));
  flow->send_message(std::move(items),
                     [&out, t0](const net::FlowStats& st) {
                       out.comm_s = st.end_time - t0;
                       out.wire_bytes = st.bytes_sent;
                       out.failed = st.failed;
                     });
  sim_.run();
  return out;
}

void Membership::complete_rejoin(int rank, std::uint64_t round) {
  assert(!view_.is_live(rank));
  view_.admit(rank);
  const auto r = static_cast<std::size_t>(rank);
  agent_view_[r] = view_.version;
  misses_[r] = 0;
  if (evicted_at_[r] >= 0) {
    recovery_s_total_ += sim_.now() - evicted_at_[r];
    evicted_at_[r] = -1.0;
  }
  ++rejoins_;
  MembershipTelemetry::get().rejoins.add();
  events_.push_back({MembershipEvent::Kind::kRejoin, sim_.now(), rank,
                     view_.version, round});
  if (monitor_ != nullptr) {
    monitor_->on_view_version(view_.version, sim_.now());
  }
}

void Membership::store_checkpoint(const Checkpoint& ck) {
  const auto t0 = std::chrono::steady_clock::now();
  auto blob = ck.to_bytes();
  ckpt_wall_s_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ckpt_blobs_.at(static_cast<std::size_t>(ck.rank)) = std::move(blob);
  ++ckpt_saves_;
  if (monitor_ != nullptr) {
    // Custody check: the blob we just stored must survive its CRC-verified
    // parse — a store that can't be restored is a silent data-loss bug.
    bool ok = true;
    try {
      (void)Checkpoint::from_bytes(
          ckpt_blobs_.at(static_cast<std::size_t>(ck.rank)));
    } catch (const std::exception&) {
      ok = false;
    }
    monitor_->on_checkpoint_custody(ck.rank, ok, sim_.now());
  }
}

bool Membership::has_checkpoint(int rank) const {
  return !ckpt_blobs_.at(static_cast<std::size_t>(rank)).empty();
}

Checkpoint Membership::restore_checkpoint(int rank) const {
  const auto& blob = ckpt_blobs_.at(static_cast<std::size_t>(rank));
  if (blob.empty()) {
    throw std::runtime_error("Membership: no checkpoint stored for rank " +
                             std::to_string(rank));
  }
  if (monitor_ != nullptr) {
    try {
      Checkpoint ck = Checkpoint::from_bytes(blob);
      monitor_->on_checkpoint_custody(rank, true, sim_.now());
      return ck;
    } catch (const std::exception&) {
      monitor_->on_checkpoint_custody(rank, false, sim_.now());
      throw;
    }
  }
  return Checkpoint::from_bytes(blob);
}

std::uint64_t Membership::checkpoint_bytes() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : ckpt_blobs_) n += b.size();
  return n;
}

}  // namespace trimgrad::ddp
