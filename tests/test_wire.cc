// Unit tests for the wire codecs: IPv4/TCP/UDP/ICMP serialization,
// checksums, and IP fragmentation mechanics.
#include <gtest/gtest.h>

#include "util/statecodec.h"
#include "wire/checksum.h"
#include "wire/fragment.h"
#include "wire/icmp.h"
#include "wire/ipv4.h"
#include "wire/tcp.h"
#include "wire/udp.h"

using namespace tspu;
using namespace tspu::wire;
using tspu::util::Bytes;
using tspu::util::Ipv4Addr;

namespace {

TEST(Checksum, Rfc1071Examples) {
  // Classic example: checksum of this 8-byte sequence.
  const Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint16_t ck = checksum(data);
  // Verifying: sum + checksum folds to 0xffff.
  std::uint32_t acc = checksum_accumulate(data);
  acc += ck;
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  EXPECT_EQ(acc, 0xffffu);
}

TEST(Checksum, OddLength) {
  const Bytes data = {0xab, 0xcd, 0xef};
  EXPECT_NE(checksum(data), 0);
}

TEST(Ipv4, SerializeParseRoundTrip) {
  Packet pkt;
  pkt.ip.src = Ipv4Addr(10, 0, 0, 1);
  pkt.ip.dst = Ipv4Addr(93, 184, 216, 34);
  pkt.ip.proto = IpProto::kTcp;
  pkt.ip.ttl = 57;
  pkt.ip.id = 4242;
  pkt.payload = {1, 2, 3, 4, 5};

  const Bytes on_wire = serialize(pkt);
  ASSERT_EQ(on_wire.size(), 25u);
  auto parsed = parse_ipv4(on_wire);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->ip.src, pkt.ip.src);
  EXPECT_EQ(parsed->ip.dst, pkt.ip.dst);
  EXPECT_EQ(parsed->ip.ttl, 57);
  EXPECT_EQ(parsed->ip.id, 4242);
  EXPECT_EQ(parsed->payload, pkt.payload);
}

TEST(Ipv4, FragmentFlagsRoundTrip) {
  Packet pkt;
  pkt.ip.src = Ipv4Addr(1, 1, 1, 1);
  pkt.ip.dst = Ipv4Addr(2, 2, 2, 2);
  pkt.ip.frag_offset = 1480;
  pkt.ip.more_fragments = true;
  pkt.payload = {9};
  auto parsed = parse_ipv4(serialize(pkt));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->ip.frag_offset, 1480);
  EXPECT_TRUE(parsed->ip.more_fragments);
  EXPECT_TRUE(parsed->ip.is_fragment());
  EXPECT_FALSE(parsed->ip.is_first_fragment());
}

TEST(Ipv4, RejectsCorruptedHeader) {
  Packet pkt;
  pkt.ip.src = Ipv4Addr(1, 1, 1, 1);
  pkt.ip.dst = Ipv4Addr(2, 2, 2, 2);
  pkt.payload = {1, 2, 3};
  Bytes wire_bytes = serialize(pkt);
  wire_bytes[8] ^= 0xff;  // corrupt TTL without fixing checksum
  EXPECT_FALSE(parse_ipv4(wire_bytes));
  Bytes truncated(wire_bytes.begin(), wire_bytes.begin() + 10);
  EXPECT_FALSE(parse_ipv4(truncated));
}

TEST(TcpFlags, StrAndParse) {
  EXPECT_EQ(kSynAck.str(), "SA");
  EXPECT_EQ(kRstAck.str(), "RA");
  EXPECT_EQ(TcpFlags().str(), "-");
  EXPECT_EQ(TcpFlags::parse("sa"), kSynAck);
  EXPECT_EQ(TcpFlags::parse("PA"), kPshAck);
  EXPECT_FALSE(TcpFlags::parse("xyz"));
  EXPECT_TRUE(kSyn.is_syn_only());
  EXPECT_FALSE(kSynAck.is_syn_only());
  EXPECT_TRUE(kSynAck.is_syn_ack());
  EXPECT_TRUE(kRstAck.is_rst_ack());
}

TEST(Tcp, SegmentRoundTrip) {
  TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 443;
  tcp.seq = 0x12345678;
  tcp.ack = 0x9abcdef0;
  tcp.flags = kPshAck;
  tcp.window = 8192;

  Ipv4Header ip;
  ip.src = Ipv4Addr(10, 1, 1, 1);
  ip.dst = Ipv4Addr(10, 2, 2, 2);
  const Bytes payload = {0xde, 0xad};
  const Packet pkt = make_tcp_packet(ip, tcp, payload);

  auto seg = parse_tcp(pkt);
  ASSERT_TRUE(seg);
  EXPECT_EQ(seg->hdr.src_port, 40000);
  EXPECT_EQ(seg->hdr.dst_port, 443);
  EXPECT_EQ(seg->hdr.seq, 0x12345678u);
  EXPECT_EQ(seg->hdr.ack, 0x9abcdef0u);
  EXPECT_EQ(seg->hdr.flags, kPshAck);
  EXPECT_EQ(seg->hdr.window, 8192);
  EXPECT_EQ(seg->payload, payload);
}

TEST(Tcp, ChecksumDetectsCorruption) {
  Ipv4Header ip;
  ip.src = Ipv4Addr(1, 2, 3, 4);
  ip.dst = Ipv4Addr(5, 6, 7, 8);
  TcpHeader tcp;
  tcp.src_port = 1;
  tcp.dst_port = 2;
  Packet pkt = make_tcp_packet(ip, tcp, util::to_bytes("hello"));
  pkt.payload[22] ^= 0x01;  // flip a payload bit (TCP header is 20 bytes)
  EXPECT_FALSE(parse_tcp(pkt, /*verify_checksum=*/true));
  EXPECT_TRUE(parse_tcp(pkt, /*verify_checksum=*/false));
}

TEST(Tcp, ChecksumCoversPseudoHeader) {
  Ipv4Header ip;
  ip.src = Ipv4Addr(1, 2, 3, 4);
  ip.dst = Ipv4Addr(5, 6, 7, 8);
  TcpHeader tcp;
  Packet pkt = make_tcp_packet(ip, tcp, {});
  // Re-address the packet without recomputing the checksum: invalid.
  pkt.ip.dst = Ipv4Addr(9, 9, 9, 9);
  EXPECT_FALSE(parse_tcp(pkt));
}

TEST(Udp, RoundTrip) {
  Ipv4Header ip;
  ip.src = Ipv4Addr(1, 1, 1, 1);
  ip.dst = Ipv4Addr(2, 2, 2, 2);
  const Bytes payload = util::to_bytes("quic-ish");
  const Packet pkt = make_udp_packet(ip, {5353, 443}, payload);
  auto d = parse_udp(pkt);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->hdr.src_port, 5353);
  EXPECT_EQ(d->hdr.dst_port, 443);
  EXPECT_EQ(d->payload, payload);
}

TEST(Udp, BadChecksumRejected) {
  Ipv4Header ip;
  ip.src = Ipv4Addr(1, 1, 1, 1);
  ip.dst = Ipv4Addr(2, 2, 2, 2);
  Packet pkt = make_udp_packet(ip, {1, 2}, util::to_bytes("x"));
  pkt.payload[8] ^= 0xff;
  EXPECT_FALSE(parse_udp(pkt));
}

TEST(Icmp, EchoRoundTrip) {
  Ipv4Header ip;
  ip.src = Ipv4Addr(1, 1, 1, 1);
  ip.dst = Ipv4Addr(2, 2, 2, 2);
  IcmpMessage msg;
  msg.type = IcmpType::kEchoRequest;
  msg.id = 77;
  msg.seq = 3;
  auto parsed = parse_icmp(make_icmp_packet(ip, msg));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, IcmpType::kEchoRequest);
  EXPECT_EQ(parsed->id, 77);
  EXPECT_EQ(parsed->seq, 3);
}

TEST(Icmp, TimeExceededEmbedsOriginal) {
  Packet expired;
  expired.ip.src = Ipv4Addr(10, 0, 0, 5);
  expired.ip.dst = Ipv4Addr(8, 8, 8, 8);
  expired.ip.id = 0xbeef;
  expired.ip.ttl = 1;
  expired.payload = Bytes(32, 0xaa);

  const Packet te = make_time_exceeded(Ipv4Addr(10, 0, 0, 1), expired);
  EXPECT_EQ(te.ip.dst, expired.ip.src);
  EXPECT_EQ(te.ip.src, Ipv4Addr(10, 0, 0, 1));
  auto msg = parse_icmp(te);
  ASSERT_TRUE(msg);
  EXPECT_EQ(msg->type, IcmpType::kTimeExceeded);
  // RFC 792: header + 8 payload bytes.
  EXPECT_EQ(msg->embedded.size(), 28u);
  // The embedded IPID (bytes 4-5) identifies the probe.
  EXPECT_EQ(msg->embedded[4], 0xbe);
  EXPECT_EQ(msg->embedded[5], 0xef);
}

// -------------------------------------------------------------- fragments

Packet big_packet(std::size_t payload_size, std::uint16_t id = 7) {
  Packet pkt;
  pkt.ip.src = Ipv4Addr(10, 0, 0, 1);
  pkt.ip.dst = Ipv4Addr(10, 0, 0, 2);
  pkt.ip.id = id;
  pkt.payload.resize(payload_size);
  for (std::size_t i = 0; i < payload_size; ++i)
    pkt.payload[i] = static_cast<std::uint8_t>(i);
  return pkt;
}

TEST(Fragment, SplitsWithAlignedOffsets) {
  const Packet pkt = big_packet(100);
  const auto frags = fragment(pkt, 40);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_EQ(frags[0].ip.frag_offset, 0);
  EXPECT_EQ(frags[1].ip.frag_offset, 40);
  EXPECT_EQ(frags[2].ip.frag_offset, 80);
  EXPECT_TRUE(frags[0].ip.more_fragments);
  EXPECT_TRUE(frags[1].ip.more_fragments);
  EXPECT_FALSE(frags[2].ip.more_fragments);
}

TEST(Fragment, SmallPacketUntouched) {
  const Packet pkt = big_packet(30);
  const auto frags = fragment(pkt, 64);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_FALSE(frags[0].ip.is_fragment());
}

TEST(Fragment, HonorsDontFragment) {
  Packet pkt = big_packet(100);
  pkt.ip.dont_fragment = true;
  EXPECT_THROW(fragment(pkt, 40), std::invalid_argument);
}

TEST(Fragment, FragmentIntoExactCount) {
  const Packet pkt = big_packet(400);
  for (std::size_t count : {2u, 5u, 45u, 46u}) {
    const auto frags = fragment_into(pkt, count);
    ASSERT_EQ(frags.size(), count) << count;
    std::size_t total = 0;
    for (const auto& f : frags) {
      if (f.ip.more_fragments) {
        EXPECT_EQ(f.ip.frag_offset % 8, 0u);
      }
      total += f.payload.size();
    }
    EXPECT_EQ(total, 400u);
  }
  EXPECT_THROW(fragment_into(pkt, 51), std::invalid_argument);
}

TEST(Fragment, OverlapsAnyDetects) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {{0, 8},
                                                                 {16, 24}};
  EXPECT_TRUE(overlaps_any(ranges, 4, 12));   // partial overlap
  EXPECT_TRUE(overlaps_any(ranges, 0, 8));    // duplicate
  EXPECT_FALSE(overlaps_any(ranges, 8, 16));  // adjacent hole
  EXPECT_FALSE(overlaps_any(ranges, 24, 32));
}

class ReassemblerTest : public ::testing::Test {
 protected:
  util::Instant now;
};

TEST_F(ReassemblerTest, ReassemblesOutOfOrder) {
  FragmentTable r{linux_like_reassembly()};
  const Packet pkt = big_packet(120);
  auto frags = fragment(pkt, 40);
  std::swap(frags[0], frags[2]);  // deliver last first
  EXPECT_FALSE(r.push(frags[0], now).complete());
  EXPECT_FALSE(r.push(frags[1], now).complete());
  FragmentPush out = r.push(frags[2], now);
  ASSERT_TRUE(out.complete());
  const Packet whole = reassemble(out.fragments);
  EXPECT_EQ(whole.payload, pkt.payload);
  EXPECT_FALSE(whole.ip.is_fragment());
  EXPECT_EQ(r.pending_queues(), 0u);
}

TEST_F(ReassemblerTest, EnforcesFragmentLimit) {
  FragmentPolicy cfg = linux_like_reassembly();
  cfg.max_fragments = 3;
  FragmentTable r{cfg};
  const auto frags = fragment(big_packet(160), 40);  // 4 fragments
  ASSERT_EQ(frags.size(), 4u);
  for (const auto& f : frags) r.push(f, now);
  EXPECT_EQ(r.pending_queues(), 0u);  // queue discarded at the 4th
}

TEST_F(ReassemblerTest, IgnoreNewKeepsQueueOnDuplicate) {
  FragmentPolicy cfg = linux_like_reassembly();
  cfg.overlap = OverlapPolicy::kIgnoreNew;
  FragmentTable r{cfg};
  const auto frags = fragment(big_packet(80), 40);
  EXPECT_FALSE(r.push(frags[0], now).complete());
  EXPECT_FALSE(r.push(frags[0], now).complete());  // dup ignored
  EXPECT_TRUE(r.push(frags[1], now).complete());   // still completes
}

TEST_F(ReassemblerTest, DiscardQueueOnDuplicate) {
  FragmentPolicy cfg = linux_like_reassembly();
  cfg.overlap = OverlapPolicy::kDiscardQueue;
  FragmentTable r{cfg};
  const auto frags = fragment(big_packet(80), 40);
  r.push(frags[0], now);
  r.push(frags[0], now);  // poison
  EXPECT_FALSE(r.push(frags[1], now).complete());
  EXPECT_EQ(r.pending_queues(), 1u);  // frags[1] opened a fresh queue
}

TEST_F(ReassemblerTest, ExpiresStaleQueues) {
  FragmentPolicy cfg = linux_like_reassembly();
  cfg.timeout = util::Duration::seconds(5);
  FragmentTable r{cfg};
  const auto frags = fragment(big_packet(80), 40);
  r.push(frags[0], now);
  r.expire(now + util::Duration::seconds(6));
  EXPECT_EQ(r.pending_queues(), 0u);
  // The late last fragment alone can't complete the datagram.
  EXPECT_FALSE(r.push(frags[1], now + util::Duration::seconds(6)).complete());
}

TEST_F(ReassemblerTest, DistinctQueuesByIpId) {
  FragmentTable r{linux_like_reassembly()};
  const auto a = fragment(big_packet(80, 1), 40);
  const auto b = fragment(big_packet(80, 2), 40);
  r.push(a[0], now);
  r.push(b[0], now);
  EXPECT_EQ(r.pending_queues(), 2u);
  EXPECT_TRUE(r.push(a[1], now).complete());
  EXPECT_TRUE(r.push(b[1], now).complete());
}

// ------------------------------------------------------ FragmentTable

TEST(FragmentTable, PushReportsEveryOutcome) {
  const util::Instant now;
  const auto frags = fragment(big_packet(120), 40);
  FragmentTable host{linux_like_reassembly()};
  EXPECT_EQ(host.push(frags[0], now).kind, FragmentPush::Kind::kBuffered);
  EXPECT_EQ(host.push(frags[0], now).kind, FragmentPush::Kind::kIgnored);
  EXPECT_EQ(host.buffered_bytes(), 40u);

  FragmentTable tspu{tspu_fragment_policy()};
  tspu.push(frags[0], now);
  const FragmentPush poisoned = tspu.push(frags[0], now);
  EXPECT_EQ(poisoned.kind, FragmentPush::Kind::kDiscarded);
  EXPECT_EQ(poisoned.reason, DiscardReason::kOverlap);
  EXPECT_EQ(tspu.pending_queues(), 0u);
  EXPECT_EQ(tspu.buffered_bytes(), 0u);

  // Completion hands back the fragments in arrival order.
  tspu.push(frags[2], now);
  tspu.push(frags[0], now);
  const FragmentPush done = tspu.push(frags[1], now);
  ASSERT_TRUE(done.complete());
  ASSERT_EQ(done.fragments.size(), 3u);
  EXPECT_EQ(done.fragments[0].ip.frag_offset, frags[2].ip.frag_offset);
  EXPECT_EQ(done.fragments[1].ip.frag_offset, 0u);
  EXPECT_EQ(tspu.buffered_bytes(), 0u);
}

TEST(FragmentTable, OverlongTailPoisonsUnderEveryPolicy) {
  // Linux's ip_frag_queue drops a queue whose geometry no completion can
  // satisfy; the ignore-new policy does so too, not just the TSPU's.
  const util::Instant now;
  auto frags = fragment(big_packet(120), 40);
  FragmentTable r{linux_like_reassembly()};
  r.push(frags[0], now);
  r.push(frags[2], now);  // last: total length 120
  Packet beyond = frags[1];
  beyond.ip.frag_offset = 120;
  const FragmentPush out = r.push(beyond, now);
  EXPECT_EQ(out.kind, FragmentPush::Kind::kDiscarded);
  EXPECT_EQ(out.reason, DiscardReason::kOverlong);
  EXPECT_EQ(r.pending_queues(), 0u);
}

TEST(FragmentTable, StaleQueueExpiresBeforeItsKeyIsReused) {
  // A datagram reusing the key of a timed-out, incomplete queue starts a
  // fresh queue: its first fragment must not be checked against (and
  // dropped as a duplicate of) the stale one.
  const util::Instant t0;
  const auto stale = fragment(big_packet(120, 7), 40);
  const auto fresh = fragment(big_packet(120, 7), 40);
  FragmentTable r{linux_like_reassembly()};
  r.push(stale[0], t0);
  const util::Instant later = t0 + util::Duration::seconds(31);
  EXPECT_TRUE(r.expiry_due(later));
  for (std::size_t i = 0; i + 1 < fresh.size(); ++i) {
    EXPECT_EQ(r.push(fresh[i], later).kind, FragmentPush::Kind::kBuffered);
  }
  EXPECT_TRUE(r.push(fresh.back(), later).complete());
}

TEST(FragmentTable, LoadRefusesQueuesThePolicyCannotHold) {
  const util::Instant now;
  const auto frags = fragment(big_packet(160), 40);  // 4 fragments
  FragmentTable wide{linux_like_reassembly()};
  for (std::size_t i = 0; i + 1 < frags.size(); ++i) wide.push(frags[i], now);
  util::StateWriter w;
  wide.save_state(w);

  FragmentPolicy narrow = linux_like_reassembly();
  narrow.max_fragments = 2;
  FragmentTable small{narrow};
  util::StateReader r(w.data());
  EXPECT_FALSE(small.load_state(r));
  EXPECT_EQ(small.pending_queues(), 0u);
}

}  // namespace
