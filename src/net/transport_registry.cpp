#include "net/transport_registry.h"

#include <algorithm>
#include <stdexcept>

#include "net/ecn_transport.h"
#include "net/host.h"
#include "net/pull_transport.h"
#include "net/transport.h"

namespace trimgrad::net {
namespace {

Host& host_at(Simulator& sim, NodeId id) {
  return static_cast<Host&>(sim.node(id));
}

/// A flow is one receiver endpoint plus one sender endpoint of the same
/// transport; every transport's endpoints expose the same surface.
template <class Rx, class Tx, class Cfg>
class EndpointFlow final : public Flow {
 public:
  EndpointFlow(Simulator& sim, NodeId src, NodeId dst, std::uint32_t flow_id,
               const Cfg& cfg, FlowOptions options)
      : receiver_(host_at(sim, dst), src, flow_id, options.expected_packets,
                  cfg, std::move(options.on_data),
                  std::move(options.on_receiver_complete)),
        sender_(host_at(sim, src), dst, flow_id, cfg) {}

  void send_message(
      std::vector<SendItem> items,
      std::function<void(const FlowStats&)> on_complete) override {
    sender_.send_message(std::move(items), std::move(on_complete));
  }
  void abort() override { sender_.abort(); }
  bool sender_active() const override { return sender_.active(); }
  SimTime current_rto() const override { return sender_.current_rto(); }
  const FlowStats& stats() const override { return sender_.stats(); }
  const ReceiverStats& receiver_stats() const override {
    return receiver_.stats();
  }
  double ecn_alpha() const override {
    if constexpr (requires { sender_.alpha(); }) return sender_.alpha();
    return 0.0;
  }

 private:
  Rx receiver_;
  Tx sender_;
};

// ------------------------------------------------------- window transports --

class WindowTransport final : public Transport {
 public:
  WindowTransport(std::string name, const char* summary, bool trim_delivered)
      : name_(std::move(name)),
        summary_(summary),
        trim_delivered_(trim_delivered) {}

  const std::string& name() const override { return name_; }
  const char* summary() const override { return summary_; }
  bool delivers_trimmed() const override { return trim_delivered_; }

  std::unique_ptr<Flow> make_flow(Simulator& sim, NodeId src, NodeId dst,
                                  std::uint32_t flow_id,
                                  const FlowTuning& tuning,
                                  FlowOptions options) const override {
    TransportConfig cfg = trim_delivered_ ? TransportConfig::trim_aware()
                                          : TransportConfig::reliable();
    if (tuning.window > 0) cfg.window = tuning.window;
    if (tuning.rto > 0) cfg.rto = tuning.rto;
    if (tuning.rto_cap > 0) cfg.rto_cap = tuning.rto_cap;
    cfg.retransmit_budget = tuning.retransmit_budget;
    cfg.flow_deadline = tuning.flow_deadline;
    return std::make_unique<EndpointFlow<Receiver, Sender, TransportConfig>>(
        sim, src, dst, flow_id, cfg, std::move(options));
  }

 private:
  std::string name_;
  const char* summary_;
  bool trim_delivered_;
};

// --------------------------------------------------------- pull transport --

class PullTransport final : public Transport {
 public:
  const std::string& name() const override { return name_; }
  const char* summary() const override {
    return "NDP-style receiver-paced pull transport, trim-aware";
  }
  bool delivers_trimmed() const override { return true; }

  std::unique_ptr<Flow> make_flow(Simulator& sim, NodeId src, NodeId dst,
                                  std::uint32_t flow_id,
                                  const FlowTuning& tuning,
                                  FlowOptions options) const override {
    PullConfig cfg;
    if (tuning.window > 0) cfg.initial_burst = tuning.window;
    if (tuning.rto > 0) cfg.rto = tuning.rto;
    if (tuning.rto_cap > 0) cfg.rto_cap = tuning.rto_cap;
    cfg.retransmit_budget = tuning.retransmit_budget;
    cfg.flow_deadline = tuning.flow_deadline;
    return std::make_unique<EndpointFlow<PullReceiver, PullSender, PullConfig>>(
        sim, src, dst, flow_id, cfg, std::move(options));
  }

 private:
  std::string name_ = "pull";
};

// ---------------------------------------------------------- ECN transport --

class EcnTransport final : public Transport {
 public:
  const std::string& name() const override { return name_; }
  const char* summary() const override {
    return "DCTCP ECN-reactive window transport, trim-aware";
  }
  bool delivers_trimmed() const override { return true; }

  std::unique_ptr<Flow> make_flow(Simulator& sim, NodeId src, NodeId dst,
                                  std::uint32_t flow_id,
                                  const FlowTuning& tuning,
                                  FlowOptions options) const override {
    EcnConfig cfg;
    if (tuning.window > 0) cfg.initial_window = tuning.window;
    if (tuning.rto > 0) cfg.rto = tuning.rto;
    if (tuning.rto_cap > 0) cfg.rto_cap = tuning.rto_cap;
    cfg.retransmit_budget = tuning.retransmit_budget;
    cfg.flow_deadline = tuning.flow_deadline;
    return std::make_unique<EndpointFlow<EcnReceiver, EcnSender, EcnConfig>>(
        sim, src, dst, flow_id, cfg, std::move(options));
  }

 private:
  std::string name_ = "ecn";
};

}  // namespace

// ---------------------------------------------------------------- registry --

const TransportRegistry& TransportRegistry::global() {
  static const TransportRegistry* reg = [] {
    auto* r = new TransportRegistry();
    r->add(std::make_unique<WindowTransport>(
        "trim", "window/ACK-clocked, trimmed arrivals delivered (the paper)",
        /*trim_delivered=*/true));
    r->add(std::make_unique<WindowTransport>(
        "reliable", "window/ACK-clocked, trimmed arrivals NACKed (baseline)",
        /*trim_delivered=*/false));
    r->add(std::make_unique<PullTransport>());
    r->add(std::make_unique<EcnTransport>());
    return r;
  }();
  return *reg;
}

const Transport* TransportRegistry::find(const std::string& name) const {
  for (const auto& t : transports_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

const Transport& TransportRegistry::at(const std::string& name) const {
  if (const Transport* t = find(name)) return *t;
  std::string msg = "unknown transport '" + name + "'; registered:";
  for (const auto& n : names()) msg += " " + n;
  throw std::invalid_argument(msg);
}

std::vector<std::string> TransportRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(transports_.size());
  for (const auto& t : transports_) out.push_back(t->name());
  std::sort(out.begin(), out.end());
  return out;
}

void TransportRegistry::add(std::unique_ptr<Transport> transport) {
  transports_.push_back(std::move(transport));
}

}  // namespace trimgrad::net
