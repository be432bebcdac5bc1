// Discrete-event simulation kernel, shardable across the thread pool.
//
// The engine keeps a monotone simulated clock, the node registry, and the
// link wiring for the fabric. Events live in per-domain priority heaps; a
// *domain* is a set of nodes (default: everything in domain 0). With one
// domain the engine is the classic single-queue sequential simulator. With
// a multi-domain partition it can additionally run *parallel*: each pool
// worker drains its domains' heaps between conservative synchronization
// horizons (barrier windows of width `lookahead()`, the minimum latency of
// any inter-domain link), which is what lets 1024-host closed-loop runs use
// every core. See DESIGN.md "Parallel simulation" for the determinism
// argument; the short version is that the event order is defined by the
// partition-aware key (time, scheduling domain, per-domain sequence) — never
// by thread scheduling — so sequential and parallel execution of the same
// partitioned fabric are bit-identical, for any TRIMGRAD_THREADS.
//
// Scheduling an event allocates nothing in steady state: the heap holds
// 32-byte plain keys, and each key points at a payload slot in a per-domain
// slab — a port to drain, a frame to deliver, or (for the cold schedule()
// API only) a callback.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "net/queue.h"

namespace trimgrad::net {

class Node;
class FaultPlane;
class InvariantMonitor;

/// Physical link parameters (one direction; connect() wires both).
struct LinkSpec {
  double bandwidth_bps = 100e9;  ///< 100 Gbps default, per the paper's testbed
  SimTime latency_s = 1e-6;      ///< propagation delay

  /// Serialization delay for a frame of `bytes`.
  SimTime tx_time(std::size_t bytes) const noexcept {
    return static_cast<double>(bytes) * 8.0 / bandwidth_bps;
  }
};

/// An egress port: queue + attached unidirectional link to a peer node.
/// Owned by its node; drained by the simulator's event loop.
class Port {
 public:
  Port(LinkSpec link, QueueConfig qcfg, NodeId peer)
      : link_(link), queue_(qcfg), peer_(peer) {}

  const LinkSpec& link() const noexcept { return link_; }
  NodeId peer() const noexcept { return peer_; }
  EgressQueue& queue() noexcept { return queue_; }
  const EgressQueue& queue() const noexcept { return queue_; }

 private:
  friend class Simulator;
  LinkSpec link_;
  EgressQueue queue_;
  NodeId peer_;
  bool transmitting_ = false;
};

/// The simulation engine: event heaps, clock, node registry, link wiring,
/// and (optionally) a sharded-execution plan over a node partition.
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Simulated now. Inside an event handler this is the executing domain's
  /// clock (domains advance independently within a synchronization window);
  /// outside a run it is the global high-water mark.
  SimTime now() const noexcept;

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0). The event
  /// executes in the domain of the node whose handler is currently running
  /// (node-local timers inherit their node), or domain 0 when scheduled
  /// from outside any event.
  void schedule(SimTime delay, std::function<void()> fn);

  /// Schedule `fn` anchored at `node`: it executes in `node`'s domain, with
  /// that node as the current context (so nested schedules and frame ids
  /// stay with the node). This is how traffic generators start flows on
  /// partitioned fabrics without violating domain confinement.
  void schedule_at(NodeId node, SimTime delay, std::function<void()> fn);

  /// Run until every event heap drains. Returns the final clock value.
  SimTime run();

  /// Run until the clock reaches `t` (events at > t stay queued).
  void run_until(SimTime t);

  // --- Partitioning & parallel execution -----------------------------------

  /// Assign `node` to `domain`. Call after the topology is built and before
  /// any traffic is scheduled. Domain ids must be dense (0..D-1 all used).
  void set_node_domain(NodeId node, std::uint32_t domain);

  /// Domain of a node (0 unless assigned).
  std::uint32_t node_domain(NodeId node) const noexcept;

  /// Freeze the partition: computes the conservative lookahead (minimum
  /// latency over links that cross domains) and allocates per-domain state.
  /// Throws std::invalid_argument if any inter-domain link has zero latency
  /// (no lookahead -> no safe window), and std::logic_error if events are
  /// already queued or the clock has advanced.
  void seal_partition();

  /// Execute sharded across ThreadPool::global() (requires a sealed
  /// partition with >= 2 domains). Off by default: the engine runs
  /// sequentially, which is also the bit-identical reference the parallel
  /// mode is tested against. Throws std::logic_error if unsealed.
  void set_parallel_execution(bool on);
  bool parallel_execution() const noexcept { return parallel_; }

  std::uint32_t domain_count() const noexcept {
    return static_cast<std::uint32_t>(domains_.size());
  }
  /// Conservative lookahead of the sealed partition (0 before sealing or
  /// with a single domain).
  SimTime lookahead() const noexcept { return lookahead_; }

  /// Events executed so far, summed over domains (bench bookkeeping).
  std::uint64_t executed_events() const noexcept;

  // --- Topology ------------------------------------------------------------

  /// Construct a node of type T (T : public Node) and register it.
  template <typename T, typename... Args>
  T& add_node(Args&&... args) {
    auto node = std::make_unique<T>(*this, next_node_id(),
                                    std::forward<Args>(args)...);
    T& ref = *node;
    register_node(std::move(node));
    return ref;
  }

  Node& node(NodeId id);
  std::size_t node_count() const noexcept;

  /// Wire a bidirectional link between two nodes: adds one egress port on
  /// each side. Returns the port indices {on_a, on_b}.
  std::pair<std::size_t, std::size_t> connect(NodeId a, NodeId b,
                                              LinkSpec link,
                                              QueueConfig qcfg_a,
                                              QueueConfig qcfg_b);
  std::pair<std::size_t, std::size_t> connect(NodeId a, NodeId b,
                                              LinkSpec link,
                                              QueueConfig qcfg) {
    return connect(a, b, link, qcfg, qcfg);
  }

  /// Hand a frame to a node's egress port: enqueue and kick the drain loop.
  /// Returns false if the queue dropped the frame.
  bool transmit(NodeId from, std::size_t port_idx, Frame&& frame);

  /// Fresh frame id for tracing and the fault plane's stateless coins.
  /// Drawn from the current domain's counter (domain 0 outside events), so
  /// ids are deterministic under any execution mode; ids from different
  /// domains live in disjoint ranges.
  std::uint64_t next_frame_id() noexcept;

  /// Total frames delivered to nodes (for conservation checks in tests).
  std::uint64_t delivered_frames() const noexcept;

  /// Attach a fault plane (net/fault_plane.h); nullptr detaches. The plane
  /// must outlive every run while attached. Consulted at transmit (origin
  /// link/node up?), dequeue (degradation, corruption, dead-link flush),
  /// and delivery (destination node up?).
  void set_fault_plane(FaultPlane* plane) noexcept { fault_plane_ = plane; }
  FaultPlane* fault_plane() const noexcept { return fault_plane_; }

  /// Attach an invariant monitor (net/invariants.h); nullptr detaches. The
  /// monitor must outlive every run while attached. Hooked at frame-id
  /// allocation, transmit, dead-link flush, and delivery dispatch; nodes and
  /// flow machinery consult it through this accessor for their own hooks.
  void set_invariant_monitor(InvariantMonitor* monitor) noexcept {
    monitor_ = monitor;
  }
  InvariantMonitor* invariant_monitor() const noexcept { return monitor_; }

 private:
  /// What an event does. Drain and deliver are the per-hop hot path and
  /// carry their operands inline; callback serves the cold schedule() /
  /// schedule_at() API (timers, traffic generators).
  enum class EventKind : std::uint8_t { kCallback, kDrain, kDeliver };
  struct Payload {
    EventKind kind = EventKind::kCallback;
    std::uint32_t port = 0;     ///< kDrain: egress port of the exec node
    Frame frame;                ///< kDeliver: frame landing at the exec node
    std::function<void()> fn;   ///< kCallback
  };

  /// Heap entry: plain data, so heap sifts copy 32 bytes. Execution order
  /// is the key (time, key_domain, key_seq); `slot` names the payload in
  /// the executing domain's slab.
  struct HeapEntry {
    SimTime time;
    std::uint32_t key_domain;  ///< scheduling domain (tiebreaker, part 1)
    NodeId exec_node;          ///< node context the event runs as
    std::uint64_t key_seq;     ///< per-domain sequence (tiebreaker, part 2)
    std::uint32_t slot;
  };
  static_assert(sizeof(HeapEntry) == 32);
  /// a after b in execution order? Key = (time, key_domain, key_seq): with
  /// one domain this is exactly time-then-FIFO; the key never depends on
  /// thread scheduling, which is the whole determinism argument.
  struct EventLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.key_domain != b.key_domain) return a.key_domain > b.key_domain;
      return a.key_seq > b.key_seq;
    }
  };

  /// Payload storage with a free list. Chunked, so a payload never moves
  /// while its handler runs, however many events that handler schedules.
  class PayloadSlab {
   public:
    std::uint32_t acquire();
    void release(std::uint32_t slot) { free_.push_back(slot); }
    Payload& operator[](std::uint32_t slot) noexcept {
      return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
    }

   private:
    static constexpr std::uint32_t kChunkBits = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
    std::vector<std::unique_ptr<Payload[]>> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t size_ = 0;
  };

  /// A cross-domain event born inside a parallel window. The barrier gives
  /// it a slot in the destination domain's slab.
  struct OutboxEvent {
    HeapEntry key;
    Payload payload;
  };

  /// Per-domain execution state. Padded: in parallel windows each domain is
  /// owned by exactly one worker, and neighbors must not share cache lines.
  struct alignas(64) Domain {
    std::vector<HeapEntry> heap;  ///< binary heap via std::push_heap/pop_heap
    /// The root's event is running and its entry may be overwritten (see
    /// run_next()).
    bool root_free = false;
    PayloadSlab slab;             ///< payloads of the events in `heap`
    std::vector<OutboxEvent> outbox;  ///< cross-domain events this window
    SimTime now = 0.0;
    std::uint64_t seq = 0;        ///< event-key sequence for this scheduler
    std::uint64_t frame_seq = 0;  ///< frame-id counter for this scheduler
    std::uint64_t delivered = 0;
    std::uint64_t executed = 0;
  };

  NodeId next_node_id() noexcept {
    return static_cast<NodeId>(nodes_.size());
  }
  void register_node(std::unique_ptr<Node> node);
  void drain_port(NodeId node_id, std::size_t port_idx);
  void deliver(NodeId peer, Frame&& frame);

  std::uint32_t exec_domain_of(NodeId node) const noexcept;
  /// Key of a new event run as `exec_node`, `delay` after the scheduling
  /// domain's clock; draws that domain's next sequence number.
  HeapEntry next_key(NodeId exec_node, SimTime delay) noexcept;
  /// Queue an event under `key` and return its payload for the caller to
  /// fill: a slot in the executing domain's slab, or the scheduler's outbox
  /// for a cross-domain event born inside a parallel window.
  Payload& place(HeapEntry key);
  /// Run the earliest event of `dom`, then drop it from the heap and free
  /// its slot.
  void run_next(Domain& dom);
  /// Execute ready events of `d` with time < bound and <= until.
  void run_domain(std::uint32_t d, SimTime bound, SimTime until);
  void run_sequential(SimTime until);
  void run_parallel(SimTime until);
  bool next_event_time(SimTime* t) const noexcept;

  SimTime now_ = 0.0;
  FaultPlane* fault_plane_ = nullptr;
  InvariantMonitor* monitor_ = nullptr;
  bool sealed_ = false;
  bool parallel_ = false;
  /// True while a parallel window is in flight (ordered by the pool's job
  /// publish/latch, so plain bool suffices); cross-domain pushes divert to
  /// the scheduler's outbox.
  bool in_window_ = false;
  SimTime lookahead_ = 0.0;
  std::vector<Domain> domains_;            ///< always >= 1 (domain 0)
  std::vector<std::uint32_t> node_domain_; ///< by node id; empty -> all 0
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Base class for everything attached to the fabric.
class Node {
 public:
  Node(Simulator& sim, NodeId id, std::string name)
      : sim_(sim), id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// A frame has fully arrived at this node. The handler may move from
  /// `frame`; whatever it leaves behind is released when it returns.
  virtual void on_frame(Frame&& frame) = 0;

  NodeId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  Simulator& sim() noexcept { return sim_; }

  std::size_t port_count() const noexcept { return ports_.size(); }
  Port& port(std::size_t i) { return *ports_.at(i); }
  const Port& port(std::size_t i) const { return *ports_.at(i); }

  /// Index of the port whose link points at `peer`, or port_count() if none.
  std::size_t port_to(NodeId peer) const noexcept;

 protected:
  Simulator& sim_;

 private:
  friend class Simulator;
  NodeId id_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
};

}  // namespace trimgrad::net
