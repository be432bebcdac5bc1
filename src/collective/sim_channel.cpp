#include "collective/sim_channel.h"

#include <algorithm>
#include <cassert>

#include "core/metrics.h"

namespace trimgrad::collective {

namespace {
/// Transfers refused because an endpoint is not live in the current view.
const core::Counter& stale_transfer_counter() {
  static const core::Counter c =
      core::MetricsRegistry::global().counter("net.membership.stale_transfers");
  return c;
}
}  // namespace

SimChannel::SimChannel(net::Simulator& sim,
                       std::vector<net::NodeId> rank_hosts, Config cfg)
    : sim_(sim), rank_hosts_(std::move(rank_hosts)), cfg_(std::move(cfg)) {
  assert(rank_hosts_.size() >= 2);
  net::TransportRegistry::global().at(cfg_.transport);  // fail fast
}

std::vector<Delivery> SimChannel::transfer(std::vector<TransferRequest> batch) {
  struct Live {
    std::unique_ptr<net::Flow> flow;
    Delivery delivery;
    bool done = false;
  };
  std::vector<std::unique_ptr<Live>> live;
  live.reserve(batch.size());

  const net::Transport& transport =
      net::TransportRegistry::global().at(cfg_.transport);

  const net::SimTime t0 = sim_.now();

  for (auto& req : batch) {
    auto lv = std::make_unique<Live>();
    lv->delivery.src = req.src;
    lv->delivery.dst = req.dst;
    lv->delivery.meta = req.message.meta;

    if (view_ != nullptr &&
        (!view_->is_live(req.src) || !view_->is_live(req.dst))) {
      // Stale request from an old view: fail it without touching the
      // fabric, so no frame of an evicted rank mixes into the new view.
      lv->delivery.flow_failed = true;
      lv->done = true;
      stale_transfer_counter().add();
      live.push_back(std::move(lv));
      continue;
    }

    const net::NodeId src_host =
        rank_hosts_.at(static_cast<std::size_t>(req.src));
    const net::NodeId dst_host =
        rank_hosts_.at(static_cast<std::size_t>(req.dst));
    const std::uint32_t flow_id = next_flow_id_++;

    // Items: one frame per gradient packet (trimmable), plus one
    // untrimmable metadata frame at the front.
    std::vector<net::SendItem> items;
    items.reserve(req.message.packets.size() + 1);
    net::SendItem meta_item;
    meta_item.size_bytes = req.message.meta.wire_bytes();
    meta_item.trim_size_bytes = 0;  // the reliable side channel
    items.push_back(meta_item);
    for (auto& pkt : req.message.packets) {
      net::SendItem it;
      it.size_bytes = pkt.wire_bytes();
      it.trim_size_bytes = pkt.trimmed_wire_bytes();
      it.cargo = std::make_shared<core::GradientPacket>(std::move(pkt));
      items.push_back(std::move(it));
    }

    Live* lp = lv.get();
    net::FlowOptions options;
    options.expected_packets = items.size();
    options.on_data = [lp](const net::Frame& f) {
      if (!f.cargo) return;  // the metadata frame
      lp->delivery.packets.push_back(*f.cargo);
      if (f.trimmed) ++lp->delivery.trimmed_packets;
    };
    lv->flow = transport.make_flow(sim_, src_host, dst_host, flow_id,
                                   cfg_.tuning, std::move(options));
    lv->flow->send_message(
        std::move(items), [lp, t0](const net::FlowStats& st) {
          lp->done = true;
          lp->delivery.comm_time = st.end_time - t0;
          lp->delivery.wire_bytes = st.bytes_sent;
          lp->delivery.retransmits = st.retransmits;
          lp->delivery.flow_failed = st.failed;
        });
    live.push_back(std::move(lv));
  }

  if (cfg_.round_deadline > 0) {
    // Let the fabric run until the deadline, then abort whatever is still
    // in flight and drain the queue (aborted senders stop re-arming their
    // RTO timers, so the drain terminates).
    sim_.run_until(t0 + cfg_.round_deadline);
    for (auto& lv : live) {
      if (lv->flow) lv->flow->abort();
    }
    sim_.run();
  } else {
    sim_.run();
  }

  std::vector<Delivery> out;
  out.reserve(live.size());
  for (auto& lv : live) {
    // Flows either complete or fail (budget / deadline / abort); both paths
    // fire on_complete, so `done` holds unless the transport is
    // misconfigured with no give-up knob against a dead fabric.
    assert(lv->done && "flow neither completed nor failed");
    if (lv->flow) {
      pending_feedback_.corrupt_nacks +=
          lv->flow->receiver_stats().corrupt_frames;
      pending_feedback_.dctcp_alpha =
          std::max(pending_feedback_.dctcp_alpha, lv->flow->ecn_alpha());
    }
    out.push_back(std::move(lv->delivery));
  }
  note_batch(out);
  return out;
}

core::NetFeedback SimChannel::take_feedback() {
  core::NetFeedback fb = Channel::take_feedback();
  // Read between collectives, when no event runs: the counts are settled.
  std::uint64_t samples = 0;
  std::uint64_t hot = 0;
  for (net::NodeId id = 0; id < sim_.node_count(); ++id) {
    const net::Node& node = sim_.node(id);
    for (std::size_t p = 0; p < node.port_count(); ++p) {
      const net::QueueCounters& c = node.port(p).queue().counters();
      samples += c.enqueued + c.dropped;
      hot += c.hot_samples;
    }
  }
  if (samples > seen_samples_) {
    fb.queue_depth_frac = static_cast<double>(hot - seen_hot_) /
                          static_cast<double>(samples - seen_samples_);
  }
  seen_samples_ = samples;
  seen_hot_ = hot;
  return fb;
}

}  // namespace trimgrad::collective
