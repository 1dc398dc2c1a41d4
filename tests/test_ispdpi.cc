// Unit tests for the ISP-side substrate: lagging blocklists, blockpage DNS
// resolvers, and the non-TSPU fragment-handling middleboxes.
#include <gtest/gtest.h>

#include "dns/dns.h"
#include "ispdpi/blocklist.h"
#include "ispdpi/middleboxes.h"
#include "ispdpi/resolver.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/router.h"
#include "wire/fragment.h"

using namespace tspu;
using util::Ipv4Addr;
using util::Ipv4Prefix;

namespace {

TEST(IspBlocklist, SubdomainSemantics) {
  ispdpi::IspBlocklist bl;
  bl.add("Blocked.RU");
  EXPECT_TRUE(bl.contains("blocked.ru"));
  EXPECT_TRUE(bl.contains("www.BLOCKED.ru"));
  EXPECT_FALSE(bl.contains("notblocked.ru"));
  EXPECT_FALSE(bl.contains("ru"));
}

TEST(IspBlocklist, UpdateHorizonExcludesRecentEntries) {
  std::vector<std::pair<std::string, int>> registry;
  for (int day = 0; day < 100; ++day) {
    registry.emplace_back("domain-" + std::to_string(day) + ".ru", day);
  }
  util::Rng rng(1);
  ispdpi::IspBlocklist::Spec spec;
  spec.coverage = 1.0;
  spec.update_horizon_day = 50;
  auto bl = ispdpi::IspBlocklist::sample(registry, spec, rng);
  EXPECT_EQ(bl.size(), 51u);  // days 0..50 inclusive
  EXPECT_TRUE(bl.contains("domain-50.ru"));
  EXPECT_FALSE(bl.contains("domain-51.ru"));
}

TEST(IspBlocklist, CoverageIsProbabilistic) {
  std::vector<std::pair<std::string, int>> registry;
  for (int i = 0; i < 2000; ++i)
    registry.emplace_back("d" + std::to_string(i) + ".ru", 0);
  util::Rng rng(2);
  ispdpi::IspBlocklist::Spec spec;
  spec.coverage = 0.5;
  auto bl = ispdpi::IspBlocklist::sample(registry, spec, rng);
  EXPECT_NEAR(bl.size(), 1000.0, 80.0);
}

// ------------------------------------------------------------- resolver

struct ResolverTopo {
  netsim::Network net;
  netsim::Host* client;
  netsim::Host* resolver;

  ResolverTopo() {
    auto c = std::make_unique<netsim::Host>("client", Ipv4Addr(10, 0, 0, 2));
    client = c.get();
    auto r = std::make_unique<netsim::Host>("resolver", Ipv4Addr(10, 0, 0, 53));
    resolver = r.get();
    const auto cid = net.add(std::move(c));
    const auto router =
        net.add(std::make_unique<netsim::Router>("r", Ipv4Addr(10, 0, 0, 1)));
    const auto rid = net.add(std::move(r));
    net.link(cid, router);
    net.link(router, rid);
    net.routes(cid).set_default(router);
    net.routes(rid).set_default(router);
    net.routes(router).add(Ipv4Prefix(client->addr(), 32), cid);
    net.routes(router).add(Ipv4Prefix(resolver->addr(), 32), rid);
  }
};

ispdpi::ResolverConfig make_config() {
  auto bl = std::make_shared<ispdpi::IspBlocklist>();
  bl->add("banned.ru");
  ispdpi::ResolverConfig rc;
  rc.blocklist = bl;
  rc.blockpage_ip = Ipv4Addr(10, 0, 0, 80);
  rc.zone = [](const std::string& name) -> std::optional<Ipv4Addr> {
    if (name == "clean.org") return Ipv4Addr(93, 184, 0, 1);
    return std::nullopt;
  };
  return rc;
}

TEST(Resolver, BlockedDomainGetsBlockpage) {
  ResolverTopo t;
  ispdpi::attach_blockpage_resolver(*t.resolver, make_config());
  const auto id = ispdpi::send_dns_query(*t.client, t.resolver->addr(),
                                         "www.banned.ru", 5000);
  t.net.sim().run_until_idle();
  auto answer = ispdpi::read_dns_answer(*t.client, id);
  ASSERT_TRUE(answer);
  EXPECT_EQ(*answer, Ipv4Addr(10, 0, 0, 80));
}

TEST(Resolver, CleanDomainResolvesNormally) {
  ResolverTopo t;
  ispdpi::attach_blockpage_resolver(*t.resolver, make_config());
  const auto id = ispdpi::send_dns_query(*t.client, t.resolver->addr(),
                                         "clean.org", 5001);
  t.net.sim().run_until_idle();
  auto answer = ispdpi::read_dns_answer(*t.client, id);
  ASSERT_TRUE(answer);
  EXPECT_EQ(*answer, Ipv4Addr(93, 184, 0, 1));
}

TEST(Resolver, UnknownDomainNxdomain) {
  ResolverTopo t;
  ispdpi::attach_blockpage_resolver(*t.resolver, make_config());
  const auto id = ispdpi::send_dns_query(*t.client, t.resolver->addr(),
                                         "no-such-domain.example", 5002);
  t.net.sim().run_until_idle();
  EXPECT_FALSE(ispdpi::read_dns_answer(*t.client, id));
}

// -------------------------------------------------- fragment middleboxes

struct BoxTopo {
  netsim::Network net;
  netsim::Host* sender;
  netsim::Host* receiver;
  netsim::NodeId r1, r2;

  BoxTopo() {
    auto s = std::make_unique<netsim::Host>("s", Ipv4Addr(10, 1, 0, 2));
    sender = s.get();
    auto d = std::make_unique<netsim::Host>("d", Ipv4Addr(10, 2, 0, 2));
    receiver = d.get();
    const auto sid = net.add(std::move(s));
    r1 = net.add(std::make_unique<netsim::Router>("r1", Ipv4Addr(10, 1, 0, 1)));
    r2 = net.add(std::make_unique<netsim::Router>("r2", Ipv4Addr(10, 2, 0, 1)));
    const auto did = net.add(std::move(d));
    net.link(sid, r1);
    net.link(r1, r2);
    net.link(r2, did);
    net.routes(sid).set_default(r1);
    net.routes(did).set_default(r2);
    net.routes(r1).set_default(r2);
    net.routes(r1).add(Ipv4Prefix(sender->addr(), 32), sid);
    net.routes(r2).set_default(r1);
    net.routes(r2).add(Ipv4Prefix(receiver->addr(), 32), did);
  }

  void send_fragmented(std::size_t n_fragments, std::uint16_t ipid) {
    wire::Ipv4Header ip;
    ip.src = sender->addr();
    ip.dst = receiver->addr();
    ip.id = ipid;
    wire::Packet pkt =
        wire::make_udp_packet(ip, {1000, 2000}, util::Bytes(400, 0x33));
    for (const auto& f : wire::fragment_into(pkt, n_fragments)) {
      sender->send_packet(f);
    }
    net.sim().run_until_idle();
  }

  int fragments_received() const {
    int n = 0;
    for (const auto& cap : receiver->captured()) {
      if (!cap.outbound && cap.pkt.ip.is_fragment()) ++n;
    }
    return n;
  }
  int whole_received() const {
    int n = 0;
    for (const auto& cap : receiver->captured()) {
      if (!cap.outbound && !cap.pkt.ip.is_fragment() &&
          cap.pkt.ip.proto == wire::IpProto::kUdp)
        ++n;
    }
    return n;
  }
};

TEST(FragmentBox, GateModeForwardsOriginalFragments) {
  BoxTopo t;
  t.net.insert_inline(t.r1, t.r2,
                      std::make_unique<ispdpi::FragmentInspectingBox>(
                          "box", wire::linux_like_reassembly(), false));
  t.send_fragmented(4, 1);
  EXPECT_EQ(t.fragments_received(), 4);
  // The single "whole" in the capture is the receiving host's own
  // reassembly record, not a box-built datagram.
  EXPECT_EQ(t.whole_received(), 1);
}

TEST(FragmentBox, ReassembleModeForwardsWholeDatagram) {
  BoxTopo t;
  t.net.insert_inline(t.r1, t.r2,
                      std::make_unique<ispdpi::FragmentInspectingBox>(
                          "box", wire::linux_like_reassembly(), true));
  t.send_fragmented(4, 2);
  EXPECT_EQ(t.fragments_received(), 0);
  EXPECT_EQ(t.whole_received(), 1);
}

TEST(FragmentBox, CiscoLimitDropsLargeQueues) {
  BoxTopo t;
  t.net.insert_inline(t.r1, t.r2,
                      std::make_unique<ispdpi::FragmentInspectingBox>(
                          "box", wire::cisco_like_reassembly(), true));
  t.send_fragmented(24, 3);  // at the limit: passes
  EXPECT_EQ(t.whole_received(), 1);
  t.receiver->clear_captured();
  t.send_fragmented(25, 4);  // over the limit: queue discarded
  EXPECT_EQ(t.whole_received(), 0);
}

TEST(FragmentBox, JuniperLimitAccepts46) {
  // The key negative control: a 250-fragment-limit box does NOT show the
  // TSPU's 45/46 boundary.
  BoxTopo t;
  t.net.insert_inline(t.r1, t.r2,
                      std::make_unique<ispdpi::FragmentInspectingBox>(
                          "box", wire::juniper_like_reassembly(), true));
  t.send_fragmented(45, 5);
  t.send_fragmented(46, 6);
  EXPECT_EQ(t.whole_received(), 2);
}

TEST(FragmentBox, Rfc5722IgnoresDuplicates) {
  BoxTopo t;
  t.net.insert_inline(t.r1, t.r2,
                      std::make_unique<ispdpi::FragmentInspectingBox>(
                          "box", wire::linux_like_reassembly(), true));
  wire::Ipv4Header ip;
  ip.src = t.sender->addr();
  ip.dst = t.receiver->addr();
  ip.id = 9;
  wire::Packet pkt =
      wire::make_udp_packet(ip, {1000, 2000}, util::Bytes(120, 0x44));
  auto frags = wire::fragment(pkt, 48);
  t.sender->send_packet(frags[0]);
  t.sender->send_packet(frags[0]);  // duplicate: ignored, queue kept
  t.sender->send_packet(frags[1]);
  t.sender->send_packet(frags[2]);
  t.net.sim().run_until_idle();
  EXPECT_EQ(t.whole_received(), 1);
}

TEST(TransparentBoxTest, PassesEverything) {
  BoxTopo t;
  t.net.insert_inline(t.r1, t.r2,
                      std::make_unique<ispdpi::TransparentBox>("noop"));
  t.send_fragmented(10, 10);
  EXPECT_EQ(t.fragments_received(), 10);
}

}  // namespace
