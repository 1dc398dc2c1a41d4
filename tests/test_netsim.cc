// Unit tests for the discrete-event simulator, routing, routers (TTL/ICMP),
// transparent middleboxes, and the host mini TCP/UDP stacks.
#include <gtest/gtest.h>

#include "ispdpi/middleboxes.h"
#include "netsim/host.h"
#include "netsim/middlebox.h"
#include "netsim/network.h"
#include "netsim/router.h"
#include "tls/clienthello.h"
#include "wire/icmp.h"

using namespace tspu;
using namespace tspu::netsim;
using tspu::util::Duration;
using tspu::util::Ipv4Addr;
using tspu::util::Ipv4Prefix;

namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::millis(20), [&] { order.push_back(2); });
  sim.schedule(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule(Duration::millis(30), [&] { order.push_back(3); });
  EXPECT_EQ(sim.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().as_micros(), 30'000);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule(Duration::millis(1), [&, i] { order.push_back(i); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunForAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.run_for(Duration::seconds(60));
  EXPECT_EQ(sim.now().as_micros(), 60'000'000);
}

TEST(Simulator, RunForStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::seconds(1), [&] { ++fired; });
  sim.schedule(Duration::seconds(10), [&] { ++fired; });
  sim.run_for(Duration::seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(Duration::millis(1), recurse);
  };
  sim.schedule(Duration::millis(1), recurse);
  sim.run_until_idle();
  EXPECT_EQ(depth, 5);
}

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable t;
  t.set_default(1);
  t.add(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 8), 2);
  t.add(Ipv4Prefix(Ipv4Addr(10, 20, 0, 0), 16), 3);
  t.add(Ipv4Prefix(Ipv4Addr(10, 20, 30, 40), 32), 4);
  EXPECT_EQ(t.lookup(Ipv4Addr(10, 20, 30, 40)), 4u);
  EXPECT_EQ(t.lookup(Ipv4Addr(10, 20, 1, 1)), 3u);
  EXPECT_EQ(t.lookup(Ipv4Addr(10, 99, 1, 1)), 2u);
  EXPECT_EQ(t.lookup(Ipv4Addr(8, 8, 8, 8)), 1u);
}

TEST(RoutingTable, RewriteNextHop) {
  RoutingTable t;
  t.set_default(5);
  t.add(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 8), 5);
  t.rewrite_next_hop(5, 9);
  EXPECT_EQ(t.lookup(Ipv4Addr(10, 1, 1, 1)), 9u);
  EXPECT_EQ(t.lookup(Ipv4Addr(1, 1, 1, 1)), 9u);
}

/// Line topology: client — r1 — r2 — server, optionally with a middlebox.
struct LineTopo {
  Network net;
  Host* client;
  Host* server;
  NodeId r1, r2;

  LineTopo() {
    auto c = std::make_unique<Host>("client", Ipv4Addr(10, 0, 0, 2));
    client = c.get();
    auto s = std::make_unique<Host>("server", Ipv4Addr(10, 9, 0, 2));
    server = s.get();
    const NodeId cid = net.add(std::move(c));
    r1 = net.add(std::make_unique<Router>("r1", Ipv4Addr(10, 0, 0, 1)));
    r2 = net.add(std::make_unique<Router>("r2", Ipv4Addr(10, 9, 0, 1)));
    const NodeId sid = net.add(std::move(s));
    net.link(cid, r1);
    net.link(r1, r2);
    net.link(r2, sid);
    net.routes(cid).set_default(r1);
    net.routes(sid).set_default(r2);
    net.routes(r1).set_default(r2);
    net.routes(r1).add(Ipv4Prefix(client->addr(), 32), cid);
    net.routes(r2).set_default(r1);
    net.routes(r2).add(Ipv4Prefix(server->addr(), 32), sid);
  }
};

TEST(Router, DecrementsTtl) {
  LineTopo t;
  wire::TcpHeader syn;
  syn.src_port = 1000;
  syn.dst_port = 2000;
  syn.flags = wire::kSyn;
  t.client->send_tcp(t.server->addr(), syn, {}, /*ttl=*/64);
  t.net.sim().run_until_idle();
  ASSERT_FALSE(t.server->captured().empty());
  EXPECT_EQ(t.server->captured().front().pkt.ip.ttl, 62);  // two routers
}

TEST(Router, EmitsTimeExceeded) {
  LineTopo t;
  wire::TcpHeader syn;
  syn.flags = wire::kSyn;
  t.client->send_tcp(t.server->addr(), syn, {}, /*ttl=*/1);
  t.net.sim().run_until_idle();
  bool got_te = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound) continue;
    auto msg = wire::parse_icmp(cap.pkt);
    if (msg && msg->type == wire::IcmpType::kTimeExceeded) {
      got_te = true;
      EXPECT_EQ(cap.pkt.ip.src, Ipv4Addr(10, 0, 0, 1));  // r1 reported
    }
  }
  EXPECT_TRUE(got_te);
  EXPECT_TRUE(t.server->captured().empty());
}

TEST(Router, AnswersPingToOwnAddress) {
  LineTopo t;
  t.client->send_ping(Ipv4Addr(10, 9, 0, 1), 5);
  t.net.sim().run_until_idle();
  bool got_reply = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound) continue;
    auto msg = wire::parse_icmp(cap.pkt);
    if (msg && msg->type == wire::IcmpType::kEchoReply && msg->id == 5)
      got_reply = true;
  }
  EXPECT_TRUE(got_reply);
}

TEST(Middlebox, TransparentBoxForwardsWithoutTtlDecrement) {
  LineTopo t;
  t.net.insert_inline(t.r1, t.r2,
                      std::make_unique<ispdpi::TransparentBox>("box"));
  wire::TcpHeader syn;
  syn.flags = wire::kSyn;
  t.client->send_tcp(t.server->addr(), syn, {}, 64);
  t.net.sim().run_until_idle();
  ASSERT_FALSE(t.server->captured().empty());
  // Still exactly two router decrements: the box is invisible.
  EXPECT_EQ(t.server->captured().front().pkt.ip.ttl, 62);
}

TEST(Middlebox, InsertRequiresExistingLink) {
  LineTopo t;
  EXPECT_THROW(t.net.insert_inline(t.r1, 999,
                                   std::make_unique<ispdpi::TransparentBox>("b")),
               std::exception);
}

TEST(HostTcp, HandshakeAndEcho) {
  LineTopo t;
  t.server->listen(7, echo_server_options());
  auto& conn = t.client->connect(t.server->addr(), 7,
                                 TcpClientOptions{.src_port = 1234});
  t.net.sim().run_until_idle();
  EXPECT_TRUE(conn.established_once());
  conn.send(util::to_bytes("hello echo"));
  t.net.sim().run_until_idle();
  EXPECT_EQ(conn.received(), util::to_bytes("hello echo"));
}

TEST(HostTcp, TlsServerAnswersServerHello) {
  LineTopo t;
  t.server->listen(443, tls_server_options());
  auto& conn = t.client->connect(t.server->addr(), 443,
                                 TcpClientOptions{.src_port = 1235});
  t.net.sim().run_until_idle();
  tls::ClientHelloSpec spec;
  spec.sni = "example.com";
  conn.send(tls::build_client_hello(spec));
  t.net.sim().run_until_idle();
  ASSERT_FALSE(conn.received().empty());
  EXPECT_EQ(conn.received()[0], tls::kContentTypeHandshake);
  EXPECT_EQ(conn.received()[5], tls::kHandshakeServerHello);
}

TEST(HostTcp, RstOnClosedPort) {
  LineTopo t;
  auto& conn = t.client->connect(t.server->addr(), 81,
                                 TcpClientOptions{.src_port = 1236});
  t.net.sim().run_until_idle();
  EXPECT_TRUE(conn.got_rst());
  EXPECT_FALSE(conn.established_once());

  t.server->rst_on_closed_port = false;
  auto& conn2 = t.client->connect(t.server->addr(), 81,
                                  TcpClientOptions{.src_port = 1237});
  t.net.sim().run_until_idle();
  EXPECT_FALSE(conn2.got_rst());
}

TEST(HostTcp, SplitHandshakeServer) {
  LineTopo t;
  auto opts = tls_server_options();
  opts.split_handshake = true;
  t.server->listen(443, opts);
  auto& conn = t.client->connect(t.server->addr(), 443,
                                 TcpClientOptions{.src_port = 1238});
  t.net.sim().run_until_idle();
  EXPECT_TRUE(conn.established_once());
  conn.send(util::to_bytes("req"));
  t.net.sim().run_until_idle();
  EXPECT_FALSE(conn.received().empty());
}

TEST(HostTcp, ClientHonorsPeerWindow) {
  LineTopo t;
  auto opts = echo_server_options();
  opts.window = 100;
  t.server->listen(7, opts);
  auto& conn = t.client->connect(t.server->addr(), 7,
                                 TcpClientOptions{.src_port = 1239});
  t.net.sim().run_until_idle();
  const std::size_t out_before = t.client->captured().size();
  conn.send(util::Bytes(250, 0x61));
  t.net.sim().run_until_idle();
  // 250 bytes under a 100-byte window: at least 3 outgoing data segments.
  int data_segments = 0;
  for (std::size_t i = out_before; i < t.client->captured().size(); ++i) {
    const auto& cap = t.client->captured()[i];
    if (!cap.outbound) continue;
    auto seg = wire::parse_tcp(cap.pkt, false);
    if (seg && !seg->payload.empty()) {
      EXPECT_LE(seg->payload.size(), 100u);
      ++data_segments;
    }
  }
  EXPECT_GE(data_segments, 3);
  EXPECT_EQ(conn.received(), util::Bytes(250, 0x61));  // echo reassembled
}

TEST(HostTcp, ClientIpFragmentsData) {
  LineTopo t;
  t.server->listen(7, echo_server_options());
  TcpClientOptions copts;
  copts.src_port = 1240;
  copts.ip_fragment_payload = 64;
  auto& conn = t.client->connect(t.server->addr(), 7, copts);
  t.net.sim().run_until_idle();
  conn.send(util::Bytes(200, 0x42));
  t.net.sim().run_until_idle();
  // Server reassembled the fragments and echoed the payload back.
  EXPECT_EQ(conn.received(), util::Bytes(200, 0x42));
  bool saw_fragment = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound && cap.pkt.ip.is_fragment()) saw_fragment = true;
  }
  EXPECT_TRUE(saw_fragment);
}

TEST(HostTcp, RetransmissionHealsLoss) {
  // A middlebox that drops the first data segment it sees, then forwards.
  class DropOnce : public Middlebox {
   public:
    using Middlebox::Middlebox;
    void process(wire::Packet pkt, Direction dir) override {
      auto seg = wire::parse_tcp(pkt, false);
      if (seg && !seg->payload.empty() && !dropped_ &&
          dir == Direction::kLeftToRight) {
        dropped_ = true;
        return;
      }
      forward_on(std::move(pkt), dir);
    }
   private:
    bool dropped_ = false;
  };

  LineTopo t;
  t.net.insert_inline(t.r1, t.r2, std::make_unique<DropOnce>("drop-once"));
  t.server->listen(7, echo_server_options());
  auto& conn = t.client->connect(t.server->addr(), 7,
                                 TcpClientOptions{.src_port = 1241});
  t.net.sim().run_until_idle();
  conn.send(util::to_bytes("must arrive"));
  t.net.sim().run_until_idle();
  EXPECT_EQ(conn.received(), util::to_bytes("must arrive"));
}

TEST(HostUdp, HandlerAndReply) {
  LineTopo t;
  t.server->udp_listen(9999, [](Host& self, Ipv4Addr src,
                                const wire::UdpDatagram& d) {
    self.send_udp(src, 9999, d.hdr.src_port, d.payload);
  });
  t.client->send_udp(t.server->addr(), 5555, 9999, util::to_bytes("ping"));
  t.net.sim().run_until_idle();
  bool echoed = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound) continue;
    auto d = wire::parse_udp(cap.pkt);
    if (d && d->payload == util::to_bytes("ping")) echoed = true;
  }
  EXPECT_TRUE(echoed);
}

TEST(HostFragments, InboundReassembly) {
  LineTopo t;
  t.server->listen(80, echo_server_options());
  // Craft a fragmented SYN by hand.
  wire::TcpHeader syn;
  syn.src_port = 3333;
  syn.dst_port = 80;
  syn.seq = 1;
  syn.flags = wire::kSyn;
  wire::Ipv4Header ip;
  ip.src = t.client->addr();
  ip.dst = t.server->addr();
  ip.id = 99;
  wire::Packet pkt = wire::make_tcp_packet(ip, syn, util::Bytes(100, 0xcc));
  for (auto& frag : wire::fragment(pkt, 48)) {
    t.client->send_packet(std::move(frag));
  }
  t.net.sim().run_until_idle();
  bool got_synack = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound) continue;
    auto seg = wire::parse_tcp(cap.pkt, false);
    if (seg && seg->hdr.flags.is_syn_ack()) got_synack = true;
  }
  EXPECT_TRUE(got_synack);
}

TEST(HostFragments, ReusedIpIdAfterQuiesceIsDelivered) {
  // The prober's IP ID restarts at 1 every trial, so a key can repeat
  // across items. A datagram reusing the key of a stale, incomplete queue
  // must still be delivered: its first fragment must not be dropped as a
  // duplicate of the stale queue's.
  LineTopo t;
  int delivered = 0;
  t.server->udp_listen(2000, [&delivered](Host&, Ipv4Addr,
                                          const wire::UdpDatagram&) {
    ++delivered;
  });
  wire::Ipv4Header ip;
  ip.src = t.client->addr();
  ip.dst = t.server->addr();
  ip.id = 1;
  const auto frags = wire::fragment(
      wire::make_udp_packet(ip, {1000, 2000}, util::Bytes(120, 0x5a)), 48);
  ASSERT_EQ(frags.size(), 3u);
  t.client->send_packet(frags[0]);  // datagram left incomplete
  t.client->send_packet(frags[1]);
  t.net.sim().run_until_idle();
  t.net.sim().run_for(Duration::seconds(1000));
  t.server->reset_traffic_state();

  for (const wire::Packet& f : frags) t.client->send_packet(f);
  t.net.sim().run_until_idle();
  EXPECT_EQ(delivered, 1);
}

TEST(HostCapture, LimitEnforced) {
  LineTopo t;
  t.server->set_capture_limit(2);
  for (int i = 0; i < 5; ++i) {
    t.client->send_udp(t.server->addr(), 1, 2, util::to_bytes("x"));
  }
  t.net.sim().run_until_idle();
  EXPECT_LE(t.server->captured().size(), 2u);
}

TEST(Network, PacketsTransmittedCounter) {
  LineTopo t;
  const auto before = t.net.packets_transmitted();
  t.client->send_udp(t.server->addr(), 1, 2, util::to_bytes("x"));
  t.net.sim().run_until_idle();
  EXPECT_GE(t.net.packets_transmitted(), before + 3);  // 3 hops
}

}  // namespace
