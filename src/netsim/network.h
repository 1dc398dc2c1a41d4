// The Network: owns all nodes, links, and the simulator clock; moves packets.
#pragma once

#include <memory>
#include <vector>

#include "netsim/faults.h"
#include "netsim/node.h"
#include "netsim/sim.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/time.h"
#include "wire/ipv4.h"

namespace tspu::netsim {

class Middlebox;

class Network final : private PacketSink {
 public:
  /// Registers itself as the simulator's packet sink: scheduled packet
  /// deliveries come back through deliver_scheduled without a per-packet
  /// closure ever touching the event heap.
  Network() { sim_.set_packet_sink(this); }

  /// Takes ownership; returns the node's id. The node's address (if nonzero)
  /// becomes resolvable via find_by_addr.
  NodeId add(std::unique_ptr<Node> node);

  /// Creates a bidirectional link with the given one-way propagation delay.
  void link(NodeId a, NodeId b, util::Duration delay = util::Duration::millis(1));

  /// Installs a fault plan on the (bidirectional) a—b link; each direction
  /// keeps its own chain state and RNG stream. Overwrites a prior plan.
  void set_link_faults(NodeId a, NodeId b, LinkFaultPlan plan);

  /// Fault plan applied to every link without a per-link plan — the way the
  /// national fault-matrix benches degrade the whole topology at once.
  void set_default_link_faults(LinkFaultPlan plan);

  /// Removes every fault plan (per-link and default) and all chain state.
  void clear_link_faults();

  /// Rotates the root behind every per-link fault stream, marks the current
  /// sim instant as the trial epoch for flap windows, and resets chain
  /// state + stats. Called by begin_trial(); per-link streams re-derive
  /// statelessly from (root, edge), so lazily-created state stays identical
  /// across job counts.
  void reseed_fault_rngs(std::uint64_t seed);

  /// True when a fault plan currently holds the from->to link down.
  bool fault_link_down(NodeId from, NodeId to) const;

  const LinkFaultStats& fault_stats() const { return fault_stats_; }

  /// Splices `box` into the existing a—b link: a—box—b. Routing tables on
  /// a and b are rewritten so the box is transparent to routing; `a` becomes
  /// the box's "left" side and `b` its "right" side. Returns the box's id.
  NodeId insert_inline(NodeId a, NodeId b, std::unique_ptr<Middlebox> box);

  /// Sends `pkt` from `from` toward pkt.ip.dst using from's routing table
  /// (hosts and routers) — the normal forwarding entry point.
  void forward(NodeId from, wire::Packet pkt);

  /// Delivers `pkt` directly onto the link from `from` to `to` (used by
  /// middleboxes, which forward by interface rather than by routing).
  void transmit(NodeId from, NodeId to, wire::Packet pkt);

  bool linked(NodeId a, NodeId b) const;

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }

  RoutingTable& routes(NodeId id) { return tables_.at(id); }

  NodeId find_by_addr(util::Ipv4Addr addr) const;

  Simulator& sim() { return sim_; }
  util::Instant now() const { return sim_.now(); }

  /// Total packets handed to transmit(); a cheap activity counter for tests.
  std::uint64_t packets_transmitted() const { return packets_transmitted_; }

 private:
  struct LinkFaultState {
    GilbertElliottState chain;
    util::Rng rng{0};
    /// Last instant a packet stepped this direction's chain — the idle gap
    /// fed to GilbertElliottState::relax for time-clocked burst decay.
    util::Instant last_packet;
  };

  util::Duration delay_of(NodeId a, NodeId b) const;

  /// The plan governing from->to, or nullptr when no fault applies.
  const LinkFaultPlan* fault_plan(NodeId from, NodeId to) const;
  /// Lazily creates the per-direction chain state, seeded statelessly.
  LinkFaultState& fault_state(NodeId from, NodeId to);

  /// Common tail of transmit(): counts the packet and schedules delivery
  /// after `delay`. Every path — clean, duplicated, reordered — funnels
  /// through here, and delivery re-checks flap windows so a link that went
  /// down mid-flight never delivers (TSPU_AUDIT-enforced).
  void deliver(NodeId from, NodeId to, wire::Packet pkt,
               util::Duration delay);

  /// PacketSink: runs at the delivery instant for every scheduled packet —
  /// re-checks flap windows (a link that went down mid-flight eats the
  /// packet) and hands it to the destination node.
  void deliver_scheduled(NodeId from, NodeId to, wire::Packet pkt) override;

  Simulator sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<RoutingTable> tables_;
  // Adjacency with per-direction delays (delays are symmetric today, but the
  // map is directional so asymmetric-latency scenarios stay possible). Flat
  // maps: transmit() resolves an edge per packet-hop, and find_by_addr runs
  // per probe, so these are the simulator's hottest lookups.
  util::FlatMap<std::pair<NodeId, NodeId>, util::Duration> edges_;
  // Fault-injection layer (netsim/faults.h). Plans are per-direction;
  // chain/RNG state is created lazily with order-independent seeds.
  util::FlatMap<std::pair<NodeId, NodeId>, LinkFaultPlan> fault_plans_;
  LinkFaultPlan default_fault_plan_;
  bool has_default_fault_plan_ = false;
  util::FlatMap<std::pair<NodeId, NodeId>, LinkFaultState> fault_states_;
  std::uint64_t fault_seed_root_ = 0xfa017ull;
  util::Instant fault_epoch_;
  LinkFaultStats fault_stats_;
  util::FlatMap<util::Ipv4Addr, NodeId> by_addr_;
  std::uint64_t packets_transmitted_ = 0;
};

}  // namespace tspu::netsim
