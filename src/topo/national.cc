#include "topo/national.h"

#include <algorithm>
#include <cmath>

#include "ispdpi/resolver.h"
#include "netsim/router.h"
#include "obs/obs.h"
#include "util/buffer_pool.h"

namespace tspu::topo {
namespace {

using netsim::NodeId;
using util::Ipv4Addr;
using util::Ipv4Prefix;

constexpr int kRegions = 8;
constexpr std::size_t kEndpointsPerAccess = 200;

/// Stream tag for flood-driver reseeds (begin_trial), disjoint from the
/// device eviction-stream tags in tspu/device.cc.
constexpr std::uint32_t kFloodStream = 0xf10du;

/// Where in the AS the TSPU sits, which fixes the hop distance the
/// frag-TTL localization should recover (Figure 12).
enum class DeviceDepth {
  kNone,
  kAccessLink,   // border—access link: 1 router hop from the endpoint
  kBorderLink,   // region—border link: 2 hops
  kTransitLink,  // region—transit link (censorship-as-a-service): 3 hops
};

struct PortShare {
  std::uint16_t port;
  double residential, mixed, datacenter, small;
};

// Port mixes by network kind. These drive Figure 9's shape: TR-069 (7547)
// and other CPE ports live almost entirely in residential eyeball networks
// (where the TSPU coverage is), server ports mostly in datacenters.
constexpr PortShare kPortShares[] = {
    {21,    0.010, 0.050, 0.090, 0.050},
    {22,    0.010, 0.090, 0.170, 0.080},
    {80,    0.040, 0.220, 0.290, 0.250},
    {443,   0.030, 0.250, 0.330, 0.270},
    {445,   0.120, 0.050, 0.010, 0.050},
    {1723,  0.050, 0.020, 0.005, 0.020},
    {3389,  0.080, 0.060, 0.030, 0.060},
    {7547,  0.500, 0.020, 0.005, 0.020},
    {8080,  0.090, 0.140, 0.050, 0.110},
    {58000, 0.070, 0.090, 0.020, 0.080},
};

std::uint16_t draw_port(AsKind kind, util::Rng& rng) {
  double roll = rng.uniform();
  for (const PortShare& ps : kPortShares) {
    const double share = kind == AsKind::kResidential ? ps.residential
                         : kind == AsKind::kMixed     ? ps.mixed
                         : kind == AsKind::kDatacenter ? ps.datacenter
                                                        : ps.small;
    if (roll < share) return ps.port;
    roll -= share;
  }
  return 443;
}

std::string draw_label(AsKind kind, util::Rng& rng) {
  const double r = rng.uniform();
  switch (kind) {
    case AsKind::kResidential:
      return r < 0.55 ? "router" : r < 0.63 ? "switch" : r < 0.65 ? "server" : "unknown";
    case AsKind::kDatacenter:
      return r < 0.10 ? "router" : r < 0.15 ? "switch" : r < 0.75 ? "server" : "unknown";
    case AsKind::kMixed:
    case AsKind::kSmallLeaf:
      return r < 0.30 ? "router" : r < 0.45 ? "switch" : r < 0.65 ? "server" : "unknown";
  }
  return "unknown";
}

core::FailureRates national_device_rates() {
  core::FailureRates r;
  r.sni_i = 0.003;
  r.sni_ii = 0.003;
  r.sni_iv = 0.01;
  r.quic = 0.003;
  r.ip_based = 0.003;
  return r;
}

}  // namespace

std::string as_kind_name(AsKind k) {
  switch (k) {
    case AsKind::kResidential: return "residential";
    case AsKind::kMixed: return "mixed";
    case AsKind::kDatacenter: return "datacenter";
    case AsKind::kSmallLeaf: return "small-leaf";
  }
  return "?";
}

NationalTopology::NationalTopology(NationalConfig config)
    : config_(config), policy_(std::make_shared<core::Policy>()) {
  build();
  if (config_.link_faults.any()) {
    net_.set_default_link_faults(config_.link_faults);
  }
  if (config_.device_faults.any()) {
    for (core::Device* d : devices_) d->set_fault_plan(config_.device_faults);
  }
}

void NationalTopology::reseed_stochastic(std::uint64_t seed) {
  util::Rng root(seed);
  for (core::Device* d : devices_) d->reseed(root.next());
  // Discarded draw: keeps the fault root below on the seed it has always
  // had, so fault-plan results do not shift.
  root.next();
  // Rotates every per-link fault stream and re-anchors the flap/reboot epoch
  // at the current instant; drawn last so the device streams above keep
  // their historical seeds.
  net_.reseed_fault_rngs(root.next());
}

void NationalTopology::begin_trial(std::uint64_t item_seed) {
  // The quiesce below processes whatever the previous item left in flight,
  // and how much that is depends on which items shared this replica — so
  // none of it may reach the flight recorder, or per-item counters would
  // differ across job counts.
  obs::MuteGuard mute;
  // Drain whatever the previous item left in flight, then jump the clock far
  // past the longest TSPU timeout (480 s established conntrack), so every
  // conntrack entry, blocking verdict, and fragment queue from earlier items
  // is expired by the time this item's packets arrive.
  net_.sim().run_until_idle();
  net_.sim().run_for(util::Duration::seconds(1000));
  reseed_stochastic(item_seed);
  // Restart the flood campaigns with a trial-local spoof stream; leftovers
  // from the previous item already ran dry during the quiesce above.
  if (flood_driver_) {
    flood_driver_->arm(netsim::fault_stream_seed(item_seed, kFloodStream, 0));
  }
  for (netsim::Host* h : {prober_, tor_node_}) {
    h->reset_traffic_state();
    h->reset_protocol_counters();
  }
  // DNS transaction IDs are per-worker state; re-anchor them so the IDs a
  // trial sees do not encode how many queries earlier items sent.
  ispdpi::reset_dns_query_ids();
  // Payload-buffer free lists are per-worker state too: purge them so a
  // trial's allocator footprint never depends on what ran before it.
  util::reset_buffer_pool();
  // Re-anchor trace timestamps at the trial start: shard clocks accumulate
  // across the items a shard has run, so absolute times are job-count
  // dependent while trial-relative times are not.
  obs::anchor_epoch(net_.now());
}

void NationalTopology::build() {
  util::Rng rng(config_.seed);
  std::uint64_t device_seed = rng.next();

  // SNI-II policy entries used by the echo (Quack) measurement, and the
  // blocked-IP list headed by the Tor entry node.
  core::SniPolicy sni_ii;
  sni_ii.delayed_drop = true;
  policy_->add_sni("play.google.com", sni_ii);
  policy_->add_sni("nordvpn.com", sni_ii);

  // -------------------------------------------------------------- backbone
  auto add_router = [&](const std::string& name, Ipv4Addr addr) {
    return net_.add(std::make_unique<netsim::Router>(name, addr));
  };
  const NodeId world = add_router("world", Ipv4Addr(198, 19, 1, 1));
  const NodeId ru_core = add_router("ru-core", Ipv4Addr(80, 64, 1, 1));
  net_.link(world, ru_core);
  net_.routes(world).set_default(ru_core);
  net_.routes(ru_core).set_default(world);

  {
    auto prober = std::make_unique<netsim::Host>("paris-prober",
                                                 Ipv4Addr(163, 172, 1, 10));
    prober_ = prober.get();
    net_.add(std::move(prober));
    auto tor = std::make_unique<netsim::Host>("tor-entry",
                                              Ipv4Addr(163, 172, 1, 11));
    tor_node_ = tor.get();
    net_.add(std::move(tor));
    for (netsim::Host* h : {prober_, tor_node_}) {
      net_.link(world, h->id());
      net_.routes(world).add(Ipv4Prefix(h->addr(), 32), h->id());
      net_.routes(h->id()).set_default(world);
    }
  }
  policy_->block_ip(tor_node_->addr());

  std::vector<NodeId> regions;
  for (int i = 0; i < kRegions; ++i) {
    const NodeId r = add_router("region-" + std::to_string(i),
                                Ipv4Addr(Ipv4Addr(80, 64, 2, 1).value() + i));
    regions.push_back(r);
    net_.link(ru_core, r);
    net_.routes(r).set_default(ru_core);
  }

  // ----------------------------------------------------------- AS planning
  const std::size_t total_endpoints = std::max<std::size_t>(
      200, static_cast<std::size_t>(4'005'138 * config_.endpoint_scale));

  struct Plan {
    AsKind kind;
    DeviceDepth depth = DeviceDepth::kNone;
    bool up_only = false;    ///< device sees upstream traffic only
    bool down_only = false;  ///< device sees downstream traffic only
    /// Extra internal routers between border and access layer: bigger ISPs
    /// have deeper aggregation, which pushes border/transit-placed devices
    /// further from endpoints (Figure 12's 3+-hop tail).
    int extra_depth = 0;
    std::size_t endpoints = 0;
    std::size_t echo_filtered = 0;    ///< echo servers with router/switch label
    std::size_t echo_unfiltered = 0;  ///< echo servers filtered out by Nmap
  };
  std::vector<Plan> plans(config_.n_ases);

  // Kind mix: many tiny datacenter/small-org ASes, few but huge eyeball
  // networks — which is why only ~13% of ASes but ~25% of endpoints show
  // TSPU behavior (§7.3).
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const double r = rng.uniform();
    plans[i].kind = r < 0.10   ? AsKind::kResidential
                    : r < 0.25 ? AsKind::kMixed
                    : r < 0.75 ? AsKind::kDatacenter
                               : AsKind::kSmallLeaf;
  }

  // Endpoint allocation: Pareto-ish weights, residential ASes the largest.
  {
    std::vector<double> weights(plans.size());
    double total_w = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const double kind_w = plans[i].kind == AsKind::kResidential ? 17.0
                            : plans[i].kind == AsKind::kMixed     ? 8.0
                            : plans[i].kind == AsKind::kDatacenter ? 4.0
                                                                    : 1.2;
      const double tail = std::pow(rng.uniform(), 1.2);  // heavy-ish tail
      weights[i] = kind_w * (0.2 + tail);
      total_w += weights[i];
    }
    for (std::size_t i = 0; i < plans.size(); ++i) {
      // Cap at 50k so the per-AS /16 addressing plan always fits.
      plans[i].endpoints = std::clamp<std::size_t>(
          static_cast<std::size_t>(total_endpoints * weights[i] / total_w), 2,
          50'000);
    }
  }

  // TSPU coverage per kind; placement depth sets Figure 12's histogram.
  for (Plan& p : plans) {
    double covered = 0;
    switch (p.kind) {
      case AsKind::kResidential: covered = 0.80; break;
      case AsKind::kMixed: covered = 0.22; break;
      case AsKind::kDatacenter: covered = 0.01; break;
      case AsKind::kSmallLeaf: covered = 0.15; break;
    }
    if (!rng.bernoulli(covered)) continue;
    if (p.kind == AsKind::kSmallLeaf) {
      p.depth = DeviceDepth::kTransitLink;  // rides its transit's device
    } else if (p.kind == AsKind::kMixed) {
      p.depth = rng.bernoulli(0.7) ? DeviceDepth::kBorderLink
                                   : DeviceDepth::kTransitLink;
    } else {
      const double r = rng.uniform();
      p.depth = r < 0.56   ? DeviceDepth::kAccessLink
                : r < 0.92 ? DeviceDepth::kBorderLink
                           : DeviceDepth::kTransitLink;
    }
    // Aggregation depth (independent of device placement).
    const double d = rng.uniform();
    p.extra_depth = d < 0.50 ? 0 : d < 0.75 ? 1 : d < 0.90 ? 2 : 3;
  }

  // Echo-server distribution engineered to reproduce Table 4/5:
  //   ~417 Nmap-filtered echo servers inside ~15 ASes with UPSTREAM-ONLY
  //   transit devices (echo-positive), ~44 in symmetric-TSPU ASes (IP-
  //   positive but echo-negative), the rest in uncensored ASes.
  {
    std::vector<std::size_t> up_only_ases, sym_ases, clean_ases, down_only_ases;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      Plan& p = plans[i];
      if (p.kind == AsKind::kDatacenter && p.depth == DeviceDepth::kNone &&
          clean_ases.size() < 145) {
        clean_ases.push_back(i);
      } else if (p.depth != DeviceDepth::kNone && sym_ases.size() < 28 &&
                 p.kind == AsKind::kMixed) {
        sym_ases.push_back(i);
      }
    }
    // Promote 15 mixed/small ASes to asymmetric upstream-only routing.
    for (std::size_t i = 0; i < plans.size() && up_only_ases.size() < 15; ++i) {
      Plan& p = plans[i];
      if (p.kind == AsKind::kMixed && p.depth == DeviceDepth::kNone) {
        p.depth = DeviceDepth::kBorderLink;
        p.up_only = true;
        up_only_ases.push_back(i);
      }
    }
    // A few downstream-only devices populate Table 5's IP(N)/Frag(B) cell.
    for (std::size_t i = 0; i < plans.size() && down_only_ases.size() < 6; ++i) {
      Plan& p = plans[i];
      if (p.kind == AsKind::kSmallLeaf && p.depth == DeviceDepth::kNone) {
        p.depth = DeviceDepth::kBorderLink;
        p.down_only = true;
        down_only_ases.push_back(i);
      }
    }

    // Table 4/5 proportions of the 1404-server echo population: 417
    // filtered in upstream-only ASes, 44 in symmetric ones, 675 in clean
    // ones, 268 filtered out by the Nmap labels. Scaled to echo_servers.
    const std::size_t echo_total = config_.echo_servers;
    const double unit = static_cast<double>(echo_total) / 1404.0;
    const std::size_t filtered_up = static_cast<std::size_t>(417 * unit);
    const std::size_t filtered_sym = static_cast<std::size_t>(44 * unit);
    const std::size_t filtered_clean = static_cast<std::size_t>(675 * unit);
    const std::size_t unfiltered =
        echo_total - std::min(echo_total,
                              filtered_up + filtered_sym + filtered_clean);
    auto spread = [&](std::vector<std::size_t>& ases, std::size_t filtered,
                      std::size_t plain) {
      if (ases.empty()) return;
      for (std::size_t k = 0; k < filtered; ++k)
        plans[ases[k % ases.size()]].echo_filtered++;
      for (std::size_t k = 0; k < plain; ++k)
        plans[ases[k % ases.size()]].echo_unfiltered++;
    };
    spread(up_only_ases, filtered_up, unfiltered / 3);
    spread(sym_ases, filtered_sym, unfiltered / 3);
    spread(clean_ases, filtered_clean, unfiltered - 2 * (unfiltered / 3));
  }

  // -------------------------------------------------------------- build ASes
  // One silent flood-sink address per covered AS (filled while building).
  std::vector<Ipv4Addr> flood_sinks;
  ases_.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const Plan& plan = plans[i];
    const std::uint32_t base = Ipv4Addr(45, 0, 0, 0).value() +
                               static_cast<std::uint32_t>(i) * 0x10000;
    AsInfo info;
    info.name = "AS" + std::to_string(64000 + i);
    info.kind = plan.kind;
    info.prefix = Ipv4Prefix(Ipv4Addr(base), 16);
    info.has_tspu = plan.depth == DeviceDepth::kAccessLink ||
                    plan.depth == DeviceDepth::kBorderLink;
    info.behind_transit_tspu = plan.depth == DeviceDepth::kTransitLink;
    info.asymmetric_upstream = plan.up_only;
    info.asymmetric_downstream = plan.down_only;
    info.endpoint_count = plan.endpoints;

    const NodeId region = regions[i % kRegions];

    // Intra-AS routers. Optional transit hop for censorship-as-a-service.
    NodeId upstream_attach = region;
    if (plan.depth == DeviceDepth::kTransitLink) {
      const NodeId transit =
          add_router(info.name + "-transit", Ipv4Addr(base + 5));
      net_.link(region, transit);
      net_.routes(transit).set_default(region);
      net_.routes(region).add(info.prefix, transit);
      upstream_attach = transit;
    }

    const NodeId border = add_router(info.name + "-border", Ipv4Addr(base + 1));
    net_.link(upstream_attach, border);
    net_.routes(border).set_default(upstream_attach);
    net_.routes(upstream_attach).add(info.prefix, border);
    net_.routes(ru_core).add(info.prefix, region);

    // Asymmetric variants get a second border for one direction.
    NodeId border_up = border, border_down = border;
    if (plan.up_only || plan.down_only) {
      const NodeId alt = add_router(info.name + "-border2", Ipv4Addr(base + 2));
      net_.link(upstream_attach, alt);
      net_.routes(alt).set_default(upstream_attach);
      if (plan.up_only) {
        border_up = border;   // device goes on this link
        border_down = alt;    // return path bypasses it
      } else {
        border_up = alt;
        border_down = border;
      }
      // Downstream enters through `border_down`; upstream leaves through
      // `border_up`. The device (spliced below) only sits on one of them.
      net_.routes(upstream_attach).rewrite_next_hop(border, border_down);
    }

    // Optional aggregation chain below the border (asymmetric ASes keep a
    // flat layout to keep their dual-border routing simple).
    const int extra =
        (plan.up_only || plan.down_only) ? 0 : plan.extra_depth;
    NodeId attach_up = border_up, attach_down = border_down;
    for (int k = 0; k < extra; ++k) {
      const NodeId agg = add_router(
          info.name + "-agg" + std::to_string(k),
          Ipv4Addr(base + 6 + static_cast<std::uint32_t>(k)));
      net_.link(attach_up, agg);
      net_.routes(agg).set_default(attach_up);
      net_.routes(attach_up).add(info.prefix, agg);
      attach_up = attach_down = agg;
    }

    // Access routers and endpoints.
    const std::size_t n_access =
        (plan.endpoints + kEndpointsPerAccess - 1) / kEndpointsPerAccess;
    std::vector<NodeId> access_routers;
    for (std::size_t a = 0; a < n_access; ++a) {
      const NodeId acc = add_router(
          info.name + "-acc" + std::to_string(a),
          Ipv4Addr(base + 10 + static_cast<std::uint32_t>(a)));
      access_routers.push_back(acc);
      net_.link(attach_up, acc);
      if (attach_down != attach_up) net_.link(attach_down, acc);
      net_.routes(acc).set_default(attach_up);
      const Ipv4Prefix slice(
          Ipv4Addr(base + 0x100 + static_cast<std::uint32_t>(a) * 0x100), 24);
      net_.routes(attach_up).add(slice, acc);
      if (attach_down != attach_up) net_.routes(attach_down).add(slice, acc);
    }

    // Ground-truth visibility/hops for this AS's endpoints.
    bool down_visible = false, up_visible = false;
    int hops = -1;
    if (plan.depth != DeviceDepth::kNone) {
      up_visible = !plan.down_only;
      down_visible = !plan.up_only;
      if (down_visible) {
        hops = plan.depth == DeviceDepth::kAccessLink  ? 1
               : plan.depth == DeviceDepth::kBorderLink ? 2 + extra
                                                         : 3 + extra;
      }
    }

    // Endpoints.
    std::size_t echo_filtered_left = plan.echo_filtered;
    std::size_t echo_unfiltered_left = plan.echo_unfiltered;
    for (std::size_t e = 0; e < plan.endpoints; ++e) {
      const std::size_t a = e / kEndpointsPerAccess;
      const Ipv4Addr addr(base + 0x100 + static_cast<std::uint32_t>(a) * 0x100 +
                          1 + static_cast<std::uint32_t>(e % kEndpointsPerAccess));
      auto host = std::make_unique<netsim::Host>(
          info.name + "-ep" + std::to_string(e), addr);
      netsim::Host* raw = host.get();
      raw->set_capture_limit(0);  // endpoints don't need pcaps
      net_.add(std::move(host));
      net_.link(access_routers[a], raw->id());
      net_.routes(access_routers[a]).add(Ipv4Prefix(addr, 32), raw->id());
      net_.routes(raw->id()).set_default(access_routers[a]);

      Endpoint ep;
      ep.host = raw;
      ep.addr = addr;
      ep.as_index = static_cast<int>(i);
      ep.tspu_downstream_visible = down_visible;
      ep.tspu_upstream_visible = up_visible;
      ep.tspu_hops_from_endpoint = hops;
      if (echo_filtered_left > 0) {
        --echo_filtered_left;
        ep.echo_server = true;
        ep.device_label = rng.bernoulli(0.7) ? "router" : "switch";
        ep.port = 7;
      } else if (echo_unfiltered_left > 0) {
        --echo_unfiltered_left;
        ep.echo_server = true;
        ep.device_label = rng.bernoulli(0.6) ? "server" : "unknown";
        ep.port = 7;
      } else {
        ep.port = draw_port(plan.kind, rng);
        ep.device_label = draw_label(plan.kind, rng);
      }

      // A TCP service must answer probes: echo on port 7, sink elsewhere.
      raw->listen(ep.port, ep.echo_server ? netsim::echo_server_options()
                                          : netsim::TcpServerOptions{});
      endpoints_.push_back(ep);
    }

    // Flood sink: campaigns aim at this silent host (all ports closed, no
    // RSTs) instead of real endpoints. Flood traffic still crosses the AS's
    // device tables, but never touches the hosts whose responses the scans
    // measure — an endpoint's IP-ID/ISN counters would otherwise advance by
    // however many flood packets earlier work items pushed through this
    // replica, which is job-count dependent.
    if (!config_.floods.empty() && down_visible && !access_routers.empty()) {
      const Ipv4Addr sink_addr(base + 0x100 + 0xFE);
      auto sink =
          std::make_unique<netsim::Host>(info.name + "-floodsink", sink_addr);
      netsim::Host* raw_sink = sink.get();
      raw_sink->rst_on_closed_port = false;
      raw_sink->set_capture_limit(0);
      net_.add(std::move(sink));
      net_.link(access_routers[0], raw_sink->id());
      net_.routes(access_routers[0])
          .add(Ipv4Prefix(sink_addr, 32), raw_sink->id());
      net_.routes(raw_sink->id()).set_default(access_routers[0]);
      flood_sinks.push_back(sink_addr);
    }

    // Finally, splice the device in.
    if (plan.depth != DeviceDepth::kNone) {
      core::DeviceConfig cfg;
      cfg.failures = national_device_rates();
      if (plan.up_only) cfg.failures.ip_based = 0.03;  // Table 5 noise cell
      cfg.conn_budget = config_.conn_budget;
      cfg.frag_budget = config_.frag_budget;
      cfg.overload = config_.overload;
      cfg.seed = device_seed++;
      auto dev = std::make_unique<core::Device>("tspu-" + info.name, policy_, cfg);
      devices_.push_back(dev.get());
      switch (plan.depth) {
        case DeviceDepth::kAccessLink:
          // One device per access uplink; the first link is representative,
          // remaining access routers get their own boxes.
          for (std::size_t a = 0; a < access_routers.size(); ++a) {
            if (a == 0) {
              net_.insert_inline(access_routers[a], attach_up, std::move(dev));
            } else {
              core::DeviceConfig extra_cfg = cfg;
              extra_cfg.seed = device_seed++;
              auto extra_dev = std::make_unique<core::Device>(
                  "tspu-" + info.name + "-" + std::to_string(a), policy_,
                  extra_cfg);
              devices_.push_back(extra_dev.get());
              net_.insert_inline(access_routers[a], attach_up,
                                 std::move(extra_dev));
            }
          }
          break;
        case DeviceDepth::kBorderLink:
          // Down-only devices sit on the return-path border; symmetric and
          // up-only ones on the (shared or upstream) border.
          net_.insert_inline(plan.down_only ? border_down : border_up,
                             upstream_attach, std::move(dev));
          break;
        case DeviceDepth::kTransitLink:
          net_.insert_inline(upstream_attach, region, std::move(dev));
          break;
        case DeviceDepth::kNone:
          break;
      }
    }

    ases_.push_back(info);
  }

  // ----------------------------------------------------- flood campaigns
  if (!config_.floods.empty()) {
    auto fsrc = std::make_unique<netsim::Host>("flood-src",
                                               Ipv4Addr(198, 19, 2, 10));
    flood_src_ = fsrc.get();
    net_.add(std::move(fsrc));
    net_.link(world, flood_src_->id());
    net_.routes(world).add(Ipv4Prefix(flood_src_->addr(), 32),
                           flood_src_->id());
    net_.routes(flood_src_->id()).set_default(world);
    flood_src_->rst_on_closed_port = false;
    flood_src_->set_capture_limit(0);
    // Backscatter sink: the spoofed-source /22 routes back to the flood
    // source, which silently drops whatever RSTs/SYN-ACKs endpoints return
    // (otherwise they would ping-pong on the world<->ru-core default routes
    // until TTL exhaustion).
    net_.routes(world).add(Ipv4Prefix(Ipv4Addr(198, 19, 4, 0), 22),
                           flood_src_->id());

    std::vector<netsim::FloodCampaign> campaigns = config_.floods;
    for (netsim::FloodCampaign& c : campaigns) {
      if (c.spoof_base.value() == 0) {
        c.spoof_base = Ipv4Addr(198, 19, 4, 0);
        c.spoof_count = std::min<std::uint32_t>(c.spoof_count, 1024);
      }
      if (c.targets.empty()) {
        // One silent sink per AS with a downstream-visible device: inbound
        // flood traffic then crosses every table the fragmentation
        // fingerprint also exercises, without perturbing endpoint hosts.
        c.targets = flood_sinks;
      }
    }
    flood_driver_ =
        std::make_unique<netsim::FloodDriver>(*flood_src_, std::move(campaigns));
    flood_driver_->arm(
        netsim::fault_stream_seed(config_.seed, kFloodStream, 0));
  }
}

}  // namespace tspu::topo
