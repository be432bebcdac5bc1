#include "net/sim.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "core/threadpool.h"
#include "core/trace.h"
#include "net/fault_plane.h"
#include "net/invariants.h"

namespace trimgrad::net {

namespace {

/// Execution context of the event currently running on this thread. Lets
/// now()/schedule()/next_frame_id() route to the executing domain without
/// passing the simulator through every handler signature — and makes those
/// calls race-free in parallel windows (each domain is owned by one worker).
struct ExecCtx {
  Simulator* sim = nullptr;
  std::uint32_t domain = 0;
  NodeId node = kInvalidNode;
};

thread_local ExecCtx g_ctx;

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

}  // namespace

Simulator::Simulator() : domains_(1) {
  // While a simulator is alive, trace timestamps read the simulated clock
  // (the executing domain's clock inside an event, the high-water mark
  // outside — see now()).
  core::TraceLog::global().set_time_source([this] { return now(); }, this);
}

Simulator::~Simulator() {
  // Never leave a dangling clock behind; fall back to the logical ticker —
  // unless a newer simulator has installed its own clock since.
  core::TraceLog::global().clear_time_source(this);
}

SimTime Simulator::now() const noexcept {
  if (g_ctx.sim == this) return domains_[g_ctx.domain].now;
  return now_;
}

void Simulator::schedule(SimTime delay, std::function<void()> fn) {
  const NodeId ctx_node = (g_ctx.sim == this) ? g_ctx.node : kInvalidNode;
  Payload& p = place(next_key(ctx_node, delay));
  p.kind = EventKind::kCallback;
  p.fn = std::move(fn);
}

void Simulator::schedule_at(NodeId node_id, SimTime delay,
                            std::function<void()> fn) {
  if (node_id >= nodes_.size()) throw std::out_of_range("bad node id");
  Payload& p = place(next_key(node_id, delay));
  p.kind = EventKind::kCallback;
  p.fn = std::move(fn);
}

Simulator::HeapEntry Simulator::next_key(NodeId exec_node,
                                         SimTime delay) noexcept {
  assert(delay >= 0.0);
  const bool in_exec = (g_ctx.sim == this);
  // The event key is assigned by the *scheduling* domain: its id plus the
  // next value of its private sequence counter. Each domain executes its
  // events in the same order under every execution mode, so the keys it
  // hands out are mode-independent — the heart of the determinism argument.
  // Outside any event the scheduler is domain 0, which makes an
  // unpartitioned simulator's key exactly the classic (time, FIFO counter).
  const std::uint32_t sched = in_exec ? g_ctx.domain : 0u;
  Domain& sd = domains_[sched];
  const SimTime base = in_exec ? sd.now : now_;
  return HeapEntry{base + delay, sched, exec_node, ++sd.seq, 0};
}

std::uint32_t Simulator::exec_domain_of(NodeId node_id) const noexcept {
  if (node_id == kInvalidNode || node_id >= node_domain_.size()) return 0;
  return node_domain_[node_id];
}

std::uint32_t Simulator::PayloadSlab::acquire() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if ((size_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Payload[]>(kChunkSize));
  }
  return size_++;
}

Simulator::Payload& Simulator::place(HeapEntry key) {
  const std::uint32_t dest = exec_domain_of(key.exec_node);
  if (in_window_ && g_ctx.sim == this && dest != g_ctx.domain) {
    // Cross-domain events born inside a parallel window go to the
    // scheduler's private outbox (the destination heap and slab belong to
    // another worker right now); the barrier slots them. Conservative
    // lookahead guarantees their time is at or beyond the window horizon.
    OutboxEvent& ev = domains_[g_ctx.domain].outbox.emplace_back();
    ev.key = key;
    return ev.payload;
  }
  Domain& dd = domains_[dest];
  key.slot = dd.slab.acquire();
  if (dd.root_free) {
    // Take the running event's place: one sift-down instead of the pop's
    // sift plus this push's sift.
    dd.root_free = false;
    auto& heap = dd.heap;
    std::size_t i = 0;
    for (std::size_t c = 1; c < heap.size(); c = 2 * i + 1) {
      if (c + 1 < heap.size() && EventLater{}(heap[c], heap[c + 1])) ++c;
      if (!EventLater{}(key, heap[c])) break;
      heap[i] = heap[c];
      i = c;
    }
    heap[i] = key;
  } else {
    dd.heap.push_back(key);
    std::push_heap(dd.heap.begin(), dd.heap.end(), EventLater{});
  }
  return dd.slab[key.slot];
}

void Simulator::run_next(Domain& dom) {
  const HeapEntry ev = dom.heap.front();
  assert(ev.time >= dom.now);
  dom.now = ev.time;
  g_ctx.node = ev.exec_node;
  ++dom.executed;
  // The entry stays at the root while its handler runs; the first event the
  // handler schedules into this domain overwrites it (see place()). Nothing
  // reads this heap's root until the handler returns. The slab is chunked,
  // so `p` stays put however many events the handler schedules.
  dom.root_free = true;
  Payload& p = dom.slab[ev.slot];
  switch (p.kind) {
    case EventKind::kDrain:
      drain_port(ev.exec_node, p.port);
      break;
    case EventKind::kDeliver:
      deliver(ev.exec_node, std::move(p.frame));
      p.frame.cargo.reset();  // a handler that did not take the frame
      break;
    case EventKind::kCallback:
      p.fn();
      p.fn = nullptr;
      break;
  }
  dom.slab.release(ev.slot);
  if (dom.root_free) {
    dom.root_free = false;
    std::pop_heap(dom.heap.begin(), dom.heap.end(), EventLater{});
    dom.heap.pop_back();
  }
}

void Simulator::run_domain(std::uint32_t d, SimTime bound, SimTime until) {
  Domain& dom = domains_[d];
  const auto ready = [&] {
    return !dom.heap.empty() && dom.heap.front().time < bound &&
           dom.heap.front().time <= until;
  };
  if (!ready()) return;  // most domains idle through most windows
  const ExecCtx saved = g_ctx;
  g_ctx.sim = this;
  g_ctx.domain = d;
  do {
    run_next(dom);
  } while (ready());
  g_ctx = saved;
}

void Simulator::run_sequential(SimTime until) {
  if (domains_.size() == 1) {
    run_domain(0, kInf, until);
    return;
  }
  // K-way merge across domain heaps in global key order: the sequential
  // reference execution the parallel mode is pinned against. One event at a
  // time so cross-domain causality is exact (no lookahead needed here).
  const ExecCtx saved = g_ctx;
  for (;;) {
    std::size_t best = domains_.size();
    for (std::size_t d = 0; d < domains_.size(); ++d) {
      auto& heap = domains_[d].heap;
      if (heap.empty() || heap.front().time > until) continue;
      if (best == domains_.size() ||
          EventLater{}(domains_[best].heap.front(), heap.front())) {
        best = d;
      }
    }
    if (best == domains_.size()) break;
    g_ctx.sim = this;
    g_ctx.domain = static_cast<std::uint32_t>(best);
    run_next(domains_[best]);
  }
  g_ctx = saved;
}

bool Simulator::next_event_time(SimTime* t) const noexcept {
  SimTime best = kInf;
  bool found = false;
  for (const Domain& d : domains_) {
    if (!d.heap.empty() && d.heap.front().time < best) {
      best = d.heap.front().time;
      found = true;
    }
  }
  *t = best;
  return found;
}

void Simulator::run_parallel(SimTime until) {
  if (domains_.size() == 1) {
    run_sequential(until);
    return;
  }
  auto& pool = core::ThreadPool::global();
  for (;;) {
    SimTime t_min = 0;
    if (!next_event_time(&t_min) || t_min > until) break;
    // Conservative window [t_min, t_min + lookahead): no event executed in
    // it can schedule a cross-domain event landing inside it, so every
    // domain may drain its share independently.
    const SimTime horizon = t_min + lookahead_;
    in_window_ = true;
    pool.parallel_for(domains_.size(), 1,
                      [&](std::size_t b, std::size_t e) {
                        for (std::size_t d = b; d < e; ++d) {
                          run_domain(static_cast<std::uint32_t>(d), horizon,
                                     until);
                        }
                      });
    in_window_ = false;
    // Barrier: slot the windows' cross-domain traffic into the destination
    // heaps. Order of insertion is irrelevant — pop order is defined by the
    // event keys, which were fixed at schedule time.
    for (Domain& d : domains_) {
      for (OutboxEvent& ev : d.outbox) place(ev.key) = std::move(ev.payload);
      d.outbox.clear();
    }
  }
}

SimTime Simulator::run() {
  if (parallel_) {
    run_parallel(kInf);
  } else {
    run_sequential(kInf);
  }
  for (const Domain& d : domains_) now_ = std::max(now_, d.now);
  return now_;
}

void Simulator::run_until(SimTime t) {
  if (parallel_) {
    run_parallel(t);
  } else {
    run_sequential(t);
  }
  for (const Domain& d : domains_) now_ = std::max(now_, d.now);
  now_ = std::max(now_, t);
}

void Simulator::set_node_domain(NodeId node_id, std::uint32_t domain) {
  if (node_id >= nodes_.size()) throw std::out_of_range("bad node id");
  if (sealed_) throw std::logic_error("partition already sealed");
  if (node_domain_.size() < nodes_.size()) {
    node_domain_.resize(nodes_.size(), 0);
  }
  node_domain_[node_id] = domain;
}

std::uint32_t Simulator::node_domain(NodeId node_id) const noexcept {
  return exec_domain_of(node_id);
}

void Simulator::seal_partition() {
  if (sealed_) throw std::logic_error("partition already sealed");
  for (const Domain& d : domains_) {
    if (!d.heap.empty()) {
      throw std::logic_error("seal_partition: events already queued");
    }
  }
  if (now_ != 0.0) throw std::logic_error("seal_partition: clock has run");
  node_domain_.resize(nodes_.size(), 0);
  std::uint32_t max_domain = 0;
  for (std::uint32_t d : node_domain_) max_domain = std::max(max_domain, d);
  if (!node_domain_.empty()) {
    std::vector<bool> used(max_domain + 1, false);
    for (std::uint32_t d : node_domain_) used[d] = true;
    for (std::size_t d = 0; d <= max_domain; ++d) {
      if (!used[d]) {
        throw std::invalid_argument("seal_partition: domain ids not dense");
      }
    }
  }
  // Conservative lookahead: minimum propagation latency over links whose
  // endpoints live in different domains. A zero-latency inter-domain link
  // admits no safe window at all, so it is a partition error.
  SimTime lookahead = kInf;
  for (const auto& n : nodes_) {
    const std::uint32_t dn = node_domain_[n->id()];
    for (std::size_t p = 0; p < n->port_count(); ++p) {
      const Port& port = n->port(p);
      if (node_domain_[port.peer()] == dn) continue;
      if (port.link().latency_s <= 0.0) {
        throw std::invalid_argument(
            "seal_partition: zero-latency inter-domain link (no lookahead)");
      }
      lookahead = std::min(lookahead, port.link().latency_s);
    }
  }
  lookahead_ = (max_domain == 0) ? 0.0 : lookahead;
  // Keep domain 0's counters (frame ids may have been handed out already);
  // grow per-domain state for the rest of the partition.
  domains_.resize(static_cast<std::size_t>(max_domain) + 1);
  sealed_ = true;
}

void Simulator::set_parallel_execution(bool on) {
  if (on && !sealed_) {
    throw std::logic_error("set_parallel_execution: partition not sealed");
  }
  parallel_ = on;
}

std::uint64_t Simulator::executed_events() const noexcept {
  std::uint64_t total = 0;
  for (const Domain& d : domains_) total += d.executed;
  return total;
}

std::uint64_t Simulator::delivered_frames() const noexcept {
  std::uint64_t total = 0;
  for (const Domain& d : domains_) total += d.delivered;
  return total;
}

std::uint64_t Simulator::next_frame_id() noexcept {
  const std::uint32_t dom = (g_ctx.sim == this) ? g_ctx.domain : 0u;
  Domain& d = domains_[dom];
  const std::uint64_t seq = ++d.frame_seq;
  const std::uint64_t id =
      dom == 0 ? seq  // unpartitioned runs match the classic counter
               : (static_cast<std::uint64_t>(dom + 1) << 40) | seq;
  if (monitor_ != nullptr) monitor_->on_frame_id(id);
  return id;
}

Node& Simulator::node(NodeId id) {
  if (id >= nodes_.size()) throw std::out_of_range("bad node id");
  return *nodes_[id];
}

std::size_t Simulator::node_count() const noexcept { return nodes_.size(); }

void Simulator::register_node(std::unique_ptr<Node> node) {
  if (sealed_) throw std::logic_error("add_node: partition already sealed");
  nodes_.push_back(std::move(node));
}

std::pair<std::size_t, std::size_t> Simulator::connect(NodeId a, NodeId b,
                                                       LinkSpec link,
                                                       QueueConfig qcfg_a,
                                                       QueueConfig qcfg_b) {
  if (sealed_) throw std::logic_error("connect: partition already sealed");
  Node& na = node(a);
  Node& nb = node(b);
  na.ports_.push_back(std::make_unique<Port>(link, qcfg_a, b));
  nb.ports_.push_back(std::make_unique<Port>(link, qcfg_b, a));
  return {na.ports_.size() - 1, nb.ports_.size() - 1};
}

bool Simulator::transmit(NodeId from, std::size_t port_idx, Frame&& frame) {
  Port& p = node(from).port(port_idx);
  const std::uint64_t frame_id = frame.id;
  const FrameKind kind = frame.kind;
  if (fault_plane_ != nullptr) {
    // A dead origin node originates nothing; a dead link refuses new
    // frames (the NIC sees carrier loss and drops at the source).
    if (!fault_plane_->node_up(from, now())) {
      fault_plane_->note_node_drop(from, now(), frame.id);
      if (monitor_ != nullptr) {
        monitor_->on_transmit(from, frame_id, kind, false, now());
      }
      return false;
    }
    if (!fault_plane_->link_up(from, port_idx, now())) {
      fault_plane_->note_link_refused(from, port_idx, now(), frame.id);
      if (monitor_ != nullptr) {
        monitor_->on_transmit(from, frame_id, kind, false, now());
      }
      return false;
    }
  }
  const bool accepted = p.queue().enqueue(std::move(frame));
  if (monitor_ != nullptr) {
    monitor_->on_transmit(from, frame_id, kind, accepted, now());
  }
  if (accepted && !p.transmitting_) drain_port(from, port_idx);
  return accepted;
}

void Simulator::drain_port(NodeId node_id, std::size_t port_idx) {
  Port& p = *nodes_[node_id]->ports_[port_idx];
  if (fault_plane_ != nullptr &&
      !fault_plane_->link_up(node_id, port_idx, now())) {
    // The link went down with frames still queued: they are lost with it.
    // transmit() refuses new frames for the rest of the window, so the
    // queue stays empty and the first post-recovery transmit re-kicks us.
    Frame lost;
    while (p.queue().dequeue(lost)) {
      fault_plane_->note_queue_flushed(node_id, port_idx, now(), lost.id);
      if (monitor_ != nullptr) {
        monitor_->on_queue_flushed(node_id, lost.id, now());
      }
    }
    p.transmitting_ = false;
    return;
  }
  const Frame* head = p.queue().front();
  if (head == nullptr) {
    p.transmitting_ = false;
    return;
  }
  p.transmitting_ = true;
  const LinkSpec link =
      fault_plane_ != nullptr
          ? fault_plane_->effective_link(node_id, port_idx, now(), p.link())
          : p.link();
  const SimTime tx = link.tx_time(head->size_bytes);
  const NodeId peer = p.peer();
  // Link is busy for the serialization time, then pulls the next frame.
  // Anchored at this node: the next-drain event stays in our domain.
  Payload& drain = place(next_key(node_id, tx));
  drain.kind = EventKind::kDrain;
  drain.port = static_cast<std::uint32_t>(port_idx);
  // The frame lands at the peer after serialization + propagation — in the
  // peer's domain, which for an inter-domain link is at least `lookahead`
  // away (prop >= lookahead by construction). It moves from the queue
  // straight into the delivery payload.
  Payload& arrival = place(next_key(peer, tx + link.latency_s));
  arrival.kind = EventKind::kDeliver;
  p.queue().dequeue(arrival.frame);
  if (fault_plane_ != nullptr) {
    fault_plane_->maybe_corrupt(node_id, port_idx, now(), arrival.frame);
  }
}

void Simulator::deliver(NodeId peer, Frame&& frame) {
  // Frames already on the wire when a *link* fails still land (they left
  // the queue); frames addressed to a dead *node* are lost on arrival.
  if (fault_plane_ != nullptr && !fault_plane_->node_up(peer, now())) {
    fault_plane_->note_node_drop(peer, now(), frame.id);
    if (monitor_ != nullptr) monitor_->on_arrival_drop(peer, frame.id, now());
    return;
  }
  ++domains_[exec_domain_of(peer)].delivered;
  Node& n = *nodes_[peer];
  if (monitor_ == nullptr) {
    n.on_frame(std::move(frame));
  } else {
    // Bracket the dispatch: the monitor requires every data frame to be
    // resolved by exactly one outcome before the handler returns.
    monitor_->begin_delivery(peer, frame, now());
    n.on_frame(std::move(frame));
    monitor_->end_delivery();
  }
}

std::size_t Node::port_to(NodeId peer) const noexcept {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i]->peer() == peer) return i;
  }
  return ports_.size();
}

}  // namespace trimgrad::net
