#include "netsim/host.h"

#include <algorithm>

#include "netsim/network.h"
#include "tls/clienthello.h"
#include "wire/icmp.h"

namespace tspu::netsim {

TcpServerOptions echo_server_options() {
  TcpServerOptions opts;
  opts.on_data = [](std::span<const std::uint8_t> data) {
    return util::Bytes(data.begin(), data.end());
  };
  return opts;
}

TcpServerOptions tls_server_options() {
  TcpServerOptions opts;
  opts.on_data = [](std::span<const std::uint8_t>) {
    return tls::build_server_hello();
  };
  return opts;
}

// ---------------------------------------------------------------- TcpClient

TcpClient::TcpClient(Host& host, util::Ipv4Addr dst, std::uint16_t dst_port,
                     TcpClientOptions opts)
    : host_(host), dst_(dst), dst_port_(dst_port), opts_(opts) {}

void TcpClient::start() {
  snd_nxt_ = host_.next_iss_;
  host_.next_iss_ += 64 * 1024;
  state_ = State::kSynSent;
  transmit(wire::kSyn, {});
  snd_nxt_ += 1;  // SYN consumes one sequence number
}

void TcpClient::transmit(wire::TcpFlags flags,
                         std::span<const std::uint8_t> payload) {
  wire::TcpHeader tcp;
  tcp.src_port = opts_.src_port;
  tcp.dst_port = dst_port_;
  tcp.seq = snd_nxt_;
  tcp.ack = flags.ack() ? rcv_nxt_ : 0;
  tcp.flags = flags;
  tcp.window = opts_.window;
  if (flags.syn()) tcp.mss = opts_.mss;

  wire::Ipv4Header ip;
  ip.src = host_.addr();
  ip.dst = dst_;
  ip.ttl = opts_.ttl;
  ip.id = host_.next_ip_id();
  wire::Packet pkt = wire::make_tcp_packet(ip, tcp, payload);

  if (opts_.ip_fragment_payload > 0 &&
      pkt.payload.size() > opts_.ip_fragment_payload) {
    for (wire::Packet& frag : wire::fragment(pkt, opts_.ip_fragment_payload)) {
      host_.send_packet(std::move(frag));
    }
  } else {
    host_.send_packet(std::move(pkt));
  }
}

void TcpClient::send(util::Bytes data) {
  pending_.push_back(std::move(data));
  if (state_ == State::kEstablished) flush_pending();
}

void TcpClient::flush_pending() {
  std::size_t limit = std::min<std::size_t>(
      opts_.max_segment, peer_window_ == 0 ? 1 : peer_window_);
  if (peer_mss_ != 0) limit = std::min<std::size_t>(limit, peer_mss_);
  for (util::Bytes& data : pending_) {
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t n = std::min(limit, data.size() - offset);
      auto chunk = std::span(data).subspan(offset, n);
      transmit(wire::kPshAck, chunk);
      queue_retx(snd_nxt_, util::Bytes(chunk.begin(), chunk.end()));
      snd_nxt_ += static_cast<std::uint32_t>(n);
      offset += n;
    }
  }
  pending_.clear();
}

void TcpClient::queue_retx(std::uint32_t seq, util::Bytes payload) {
  unacked_.push_back({seq, std::move(payload), 0});
  arm_retx_timer();
}

void TcpClient::arm_retx_timer() {
  if (retx_armed_) return;
  retx_armed_ = true;
  Host* h = &host_;
  const Host::FlowKey key{dst_, dst_port_, opts_.src_port};
  h->net().sim().schedule(util::Duration::seconds(1), [h, key] {
    if (auto* client = h->clients_.find(key)) client->second->on_retx_timer();
  });
}

void TcpClient::on_retx_timer() {
  retx_armed_ = false;
  if (state_ != State::kEstablished) {
    unacked_.clear();
    return;
  }
  for (auto it = unacked_.begin(); it != unacked_.end();) {
    if (++it->attempts > 8) {
      it = unacked_.erase(it);  // give up on this segment
      continue;
    }
    // Retransmit at the original sequence number.
    wire::TcpHeader tcp;
    tcp.src_port = opts_.src_port;
    tcp.dst_port = dst_port_;
    tcp.seq = it->seq;
    tcp.ack = rcv_nxt_;
    tcp.flags = wire::kPshAck;
    tcp.window = opts_.window;
    wire::Ipv4Header ip;
    ip.src = host_.addr();
    ip.dst = dst_;
    ip.ttl = opts_.ttl;
    ip.id = host_.next_ip_id();
    host_.send_packet(wire::make_tcp_packet(ip, tcp, it->payload));
    ++it;
  }
  if (!unacked_.empty()) arm_retx_timer();
}

void TcpClient::send_segment(wire::TcpFlags flags,
                             std::span<const std::uint8_t> payload,
                             std::uint8_t ttl, bool advance_seq) {
  const std::uint8_t saved_ttl = opts_.ttl;
  opts_.ttl = ttl;
  transmit(flags, payload);
  opts_.ttl = saved_ttl;
  if (advance_seq) {
    snd_nxt_ += static_cast<std::uint32_t>(payload.size()) +
                (flags.syn() || flags.fin() ? 1 : 0);
  }
}

void TcpClient::close() {
  if (state_ != State::kEstablished) return;
  transmit(wire::kFinAck, {});
  snd_nxt_ += 1;
}

void TcpClient::handle(const wire::TcpSegment& seg) {
  const wire::TcpFlags f = seg.hdr.flags;
  if (f.rst()) {
    ++rst_count_;
    state_ = State::kReset;
    return;
  }
  switch (state_) {
    case State::kSynSent:
      if (f.is_syn_ack() && seg.hdr.ack == snd_nxt_) {
        rcv_nxt_ = seg.hdr.seq + 1;
        peer_window_ = seg.hdr.window;
        if (seg.hdr.mss != 0) peer_mss_ = seg.hdr.mss;
        state_ = State::kEstablished;
        established_once_ = true;
        transmit(wire::kAck, {});
        flush_pending();
      } else if (f.is_syn_only()) {
        // Split handshake / simultaneous open: an unmodified client answers
        // the server's bare SYN with SYN/ACK (§8).
        peer_window_ = seg.hdr.window;  // combined-strategy hook
        if (seg.hdr.mss != 0) peer_mss_ = seg.hdr.mss;
        rcv_nxt_ = seg.hdr.seq + 1;
        snd_nxt_ -= 1;  // re-send our SYN sequence number with the ACK
        transmit(wire::kSynAck, {});
        snd_nxt_ += 1;
        state_ = State::kSynReceived;
      }
      break;
    case State::kSynReceived:
      if (f.ack() && !f.syn()) {
        state_ = State::kEstablished;
        established_once_ = true;
        flush_pending();
      }
      break;
    case State::kEstablished: {
      if (f.ack()) {
        // Prune retransmission queue: anything fully covered by the ACK.
        std::erase_if(unacked_, [&](const Unacked& u) {
          return u.seq + u.payload.size() <= seg.hdr.ack;
        });
      }
      if (!seg.payload.empty()) {
        // Count only segments extending past everything seen so far, so a
        // retransmitted duplicate is not mistaken for fresh delivery.
        const std::uint32_t seg_end =
            seg.hdr.seq + static_cast<std::uint32_t>(seg.payload.size());
        if (!any_data_seen_ ||
            static_cast<std::int32_t>(seg_end - highest_data_seq_) > 0) {
          ++data_segments_;
          highest_data_seq_ = seg_end;
          any_data_seen_ = true;
        }
        if (seg.hdr.seq == rcv_nxt_) {
          rcv_nxt_ += static_cast<std::uint32_t>(seg.payload.size());
          received_.insert(received_.end(), seg.payload.begin(),
                           seg.payload.end());
        }
        transmit(wire::kAck, {});
      }
      if (f.fin()) {
        rcv_nxt_ += 1;
        transmit(wire::kAck, {});
      }
      break;
    }
    case State::kClosed:
    case State::kReset:
      break;
  }
}

// --------------------------------------------------------------------- Host

Host::Host(std::string name, util::Ipv4Addr addr)
    : Node(std::move(name), addr) {}

void Host::record(const wire::Packet& pkt, bool outbound) {
  if (captured_.size() >= capture_limit_) return;
  captured_.push_back({net().now(), outbound, pkt});
}

void Host::send_packet(wire::Packet pkt) {
  record(pkt, /*outbound=*/true);
  net().forward(id(), std::move(pkt));
}

void Host::send_tcp(util::Ipv4Addr dst, const wire::TcpHeader& tcp,
                    std::span<const std::uint8_t> payload, std::uint8_t ttl) {
  wire::Ipv4Header ip;
  ip.src = addr();
  ip.dst = dst;
  ip.ttl = ttl;
  ip.id = next_ip_id();
  send_packet(wire::make_tcp_packet(ip, tcp, payload));
}

void Host::send_udp(util::Ipv4Addr dst, std::uint16_t src_port,
                    std::uint16_t dst_port,
                    std::span<const std::uint8_t> payload, std::uint8_t ttl) {
  wire::Ipv4Header ip;
  ip.src = addr();
  ip.dst = dst;
  ip.ttl = ttl;
  ip.id = next_ip_id();
  send_packet(wire::make_udp_packet(ip, {src_port, dst_port}, payload));
}

void Host::send_ping(util::Ipv4Addr dst, std::uint16_t icmp_id,
                     std::uint16_t seq, std::uint8_t ttl) {
  wire::IcmpMessage msg;
  msg.type = wire::IcmpType::kEchoRequest;
  msg.id = icmp_id;
  msg.seq = seq;
  wire::Ipv4Header ip;
  ip.src = addr();
  ip.dst = dst;
  ip.ttl = ttl;
  ip.id = next_ip_id();
  send_packet(wire::make_icmp_packet(ip, msg));
}

void Host::listen(std::uint16_t port, TcpServerOptions opts) {
  services_[port] = std::move(opts);
}

void Host::close_port(std::uint16_t port) { services_.erase(port); }

void Host::udp_listen(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

TcpClient& Host::connect(util::Ipv4Addr dst, std::uint16_t dst_port,
                         TcpClientOptions opts) {
  const FlowKey key{dst, dst_port, opts.src_port};
  auto& slot = clients_[key];
  slot.reset(new TcpClient(*this, dst, dst_port, opts));
  slot->start();
  return *slot;
}

void Host::reset_traffic_state() {
  captured_.clear();
  clients_.clear();
  server_flows_.clear();
  fragments_.clear();
}

void Host::receive(wire::Packet pkt, NodeId /*from*/) {
  record(pkt, /*outbound=*/false);
  if (pkt.ip.dst != addr()) return;  // not ours (host does not forward)

  if (pkt.ip.is_fragment()) {
    wire::FragmentPush pushed = fragments_.push(std::move(pkt), net().now());
    if (!pushed.complete()) return;
    pkt = wire::reassemble(pushed.fragments);
    record(pkt, /*outbound=*/false);  // record the reassembled datagram too
  }

  switch (pkt.ip.proto) {
    case wire::IpProto::kTcp:
      handle_tcp(pkt);
      break;
    case wire::IpProto::kUdp:
      handle_udp(pkt);
      break;
    case wire::IpProto::kIcmp:
      handle_icmp(pkt);
      break;
  }
}

void Host::handle_icmp(const wire::Packet& pkt) {
  auto msg = wire::parse_icmp(pkt);
  if (!msg) return;
  if (msg->type == wire::IcmpType::kEchoRequest && respond_icmp_echo) {
    wire::IcmpMessage reply = *msg;
    reply.type = wire::IcmpType::kEchoReply;
    wire::Ipv4Header ip;
    ip.src = addr();
    ip.dst = pkt.ip.src;
    ip.ttl = default_ttl;
    ip.id = next_ip_id();
    send_packet(wire::make_icmp_packet(ip, reply));
  }
}

void Host::handle_udp(const wire::Packet& pkt) {
  auto dgram = wire::parse_udp(pkt);
  if (!dgram) return;
  if (auto* handler = udp_handlers_.find(dgram->hdr.dst_port))
    handler->second(*this, pkt.ip.src, *dgram);
}

void Host::handle_tcp(const wire::Packet& pkt) {
  auto seg_opt = wire::parse_tcp(pkt);
  if (!seg_opt) return;
  const wire::TcpSegment& seg = *seg_opt;

  // 1. Client connections match on the full 4-tuple.
  if (auto* client = clients_.find(
          FlowKey{pkt.ip.src, seg.hdr.src_port, seg.hdr.dst_port})) {
    client->second->handle(seg);
    return;
  }

  // 2. Listening services.
  const auto* svc_entry = services_.find(seg.hdr.dst_port);
  if (svc_entry == nullptr) {
    if (rst_on_closed_port && !seg.hdr.flags.rst()) {
      wire::TcpHeader rst;
      rst.src_port = seg.hdr.dst_port;
      rst.dst_port = seg.hdr.src_port;
      rst.seq = seg.hdr.ack;
      rst.ack = seg.hdr.seq + (seg.hdr.flags.syn() ? 1 : 0) +
                static_cast<std::uint32_t>(seg.payload.size());
      rst.flags = wire::kRstAck;
      rst.window = 0;
      send_tcp(pkt.ip.src, rst, {}, default_ttl);
    }
    return;
  }
  const TcpServerOptions& opts = svc_entry->second;

  const FlowKey key{pkt.ip.src, seg.hdr.src_port, seg.hdr.dst_port};
  const wire::TcpFlags f = seg.hdr.flags;

  if (f.rst()) {
    server_flows_.erase(key);
    return;
  }

  auto* flow_entry = server_flows_.find(key);
  if (flow_entry != nullptr && f.is_syn_only()) {
    // A fresh SYN on a known tuple restarts the connection (no TIME_WAIT in
    // this mini-stack); measurement code reuses tuples across trials.
    server_flows_.erase(key);
    flow_entry = nullptr;
  }
  if (flow_entry == nullptr) {
    if (!f.syn() || f.ack()) return;  // only a fresh SYN opens a flow
    ServerFlow flow;
    flow.rcv_nxt = seg.hdr.seq + 1;  // SYN payload, if any, is ignored
    flow.peer_mss = seg.hdr.mss;
    flow.snd_nxt = next_iss_;
    next_iss_ += 64 * 1024;
    if (opts.split_handshake) {
      // §8 server-side strategy: reply with a bare SYN; the client will
      // SYN/ACK back and we complete with an ACK.
      flow.state = ServerFlowState::kSynSentSplit;
      server_transmit(key, flow, wire::kSyn, {}, opts.window);
    } else {
      flow.state = ServerFlowState::kSynReceived;
      server_transmit(key, flow, wire::kSynAck, {}, opts.window);
    }
    flow.snd_nxt += 1;  // our SYN consumed a sequence number
    server_flows_[key] = flow;
    return;
  }

  ServerFlow& flow = flow_entry->second;
  switch (flow.state) {
    case ServerFlowState::kSynSentSplit:
      if (f.is_syn_ack() && seg.hdr.ack == flow.snd_nxt) {
        flow.state = ServerFlowState::kEstablished;
        server_transmit(key, flow, wire::kAck, {}, opts.window);
      }
      return;
    case ServerFlowState::kSynReceived:
      if (f.ack()) flow.state = ServerFlowState::kEstablished;
      if (seg.payload.empty()) return;
      [[fallthrough]];
    case ServerFlowState::kEstablished: {
      if (f.ack()) {
        std::erase_if(flow.unacked, [&](const UnackedSegment& u) {
          return u.seq + u.payload.size() <= seg.hdr.ack;
        });
      }
      if (seg.payload.empty()) {
        if (f.fin()) {
          flow.rcv_nxt += 1;
          server_transmit(key, flow, wire::kFinAck, {}, opts.window);
          flow.snd_nxt += 1;
        }
        return;
      }
      if (seg.hdr.seq != flow.rcv_nxt) {
        // Out-of-order (e.g. the censor ate an earlier segment): dup-ACK.
        server_transmit(key, flow, wire::kAck, {}, opts.window);
        return;
      }
      flow.rcv_nxt += static_cast<std::uint32_t>(seg.payload.size());
      server_transmit(key, flow, wire::kAck, {}, opts.window);
      if (opts.on_data) {
        util::Bytes response = opts.on_data(seg.payload);
        if (!response.empty()) {
          if (opts.response_delay > util::Duration{}) {
            net().sim().schedule(
                opts.response_delay,
                [this, port = seg.hdr.dst_port, key,
                 r = std::move(response)]() mutable {
                  server_respond_data(port, key, std::move(r));
                });
          } else {
            server_respond_data(seg.hdr.dst_port, key, std::move(response));
          }
        }
      }
      return;
    }
  }
}

void Host::server_respond_data(std::uint16_t port, const FlowKey& key,
                               util::Bytes response) {
  auto* entry = server_flows_.find(key);
  if (entry == nullptr) return;  // flow torn down meanwhile
  const auto* svc = services_.find(port);
  if (svc == nullptr) return;
  ServerFlow& flow = entry->second;
  std::size_t seg_limit = svc->second.max_segment;
  if (flow.peer_mss != 0)
    seg_limit = std::min<std::size_t>(seg_limit, flow.peer_mss);
  std::size_t offset = 0;
  while (offset < response.size()) {
    const std::size_t n = std::min(seg_limit, response.size() - offset);
    auto chunk = std::span(response).subspan(offset, n);
    server_transmit(key, flow, wire::kPshAck, chunk, svc->second.window);
    flow.unacked.push_back(
        {flow.snd_nxt, util::Bytes(chunk.begin(), chunk.end()), 0});
    flow.snd_nxt += static_cast<std::uint32_t>(n);
    offset += n;
  }
  if (!flow.unacked.empty()) arm_server_retx(port, key);
}

void Host::arm_server_retx(std::uint16_t port, const FlowKey& key) {
  auto* entry = server_flows_.find(key);
  if (entry == nullptr || entry->second.retx_armed) return;
  entry->second.retx_armed = true;
  net().sim().schedule(util::Duration::seconds(1), [this, port, key] {
    server_retx_tick(port, key);
  });
}

void Host::server_retx_tick(std::uint16_t port, const FlowKey& key) {
  auto* entry = server_flows_.find(key);
  if (entry == nullptr) return;
  ServerFlow& flow = entry->second;
  flow.retx_armed = false;
  const auto* svc = services_.find(port);
  if (svc == nullptr) {
    flow.unacked.clear();
    return;
  }
  for (auto u = flow.unacked.begin(); u != flow.unacked.end();) {
    if (++u->attempts > 8) {
      u = flow.unacked.erase(u);
      continue;
    }
    wire::TcpHeader tcp;
    tcp.src_port = key.local_port;
    tcp.dst_port = key.peer_port;
    tcp.seq = u->seq;
    tcp.ack = flow.rcv_nxt;
    tcp.flags = wire::kPshAck;
    tcp.window = svc->second.window;
    send_tcp(key.peer, tcp, u->payload, default_ttl);
    ++u;
  }
  if (!flow.unacked.empty()) arm_server_retx(port, key);
}

void Host::server_transmit(const FlowKey& key, const ServerFlow& flow,
                           wire::TcpFlags flags,
                           std::span<const std::uint8_t> payload,
                           std::uint16_t window) {
  wire::TcpHeader tcp;
  tcp.src_port = key.local_port;
  tcp.dst_port = key.peer_port;
  tcp.seq = flow.snd_nxt;
  tcp.ack = flags.ack() ? flow.rcv_nxt : 0;
  tcp.flags = flags;
  tcp.window = window;
  if (flags.syn()) {
    const auto* svc = services_.find(key.local_port);
    if (svc != nullptr) tcp.mss = svc->second.mss;
  }
  send_tcp(key.peer, tcp, payload, default_ttl);
}

}  // namespace tspu::netsim
