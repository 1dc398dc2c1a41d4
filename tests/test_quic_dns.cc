// Unit tests for QUIC (Figure 14 fingerprint) and the DNS codec.
#include <gtest/gtest.h>

#include <ios>
#include <ostream>

#include "dns/dns.h"
#include "quic/quic.h"

using namespace tspu;
using tspu::util::Bytes;
using tspu::util::Ipv4Addr;

namespace {

TEST(Quic, BuildInitialShape) {
  quic::InitialPacketSpec spec;
  const Bytes pkt = quic::build_initial(spec);
  EXPECT_EQ(pkt.size(), 1200u);
  EXPECT_EQ(pkt[0] & 0xc0, 0xc0);  // long header + fixed bit
  // Version bytes 1..4.
  EXPECT_EQ(pkt[1], 0x00);
  EXPECT_EQ(pkt[4], 0x01);
}

TEST(Quic, ParseLongHeader) {
  quic::InitialPacketSpec spec;
  spec.version = quic::kVersionDraft29;
  spec.dcid = {1, 2, 3};
  spec.scid = {9};
  auto h = quic::parse_long_header(quic::build_initial(spec));
  ASSERT_TRUE(h);
  EXPECT_EQ(h->version, quic::kVersionDraft29);
  EXPECT_EQ(h->dcid, (Bytes{1, 2, 3}));
  EXPECT_EQ(h->scid, (Bytes{9}));
  EXPECT_FALSE(quic::parse_long_header(Bytes{0x40, 0x00}));  // short header
}

TEST(Quic, VersionNames) {
  EXPECT_EQ(quic::version_name(quic::kVersion1), "QUICv1");
  EXPECT_EQ(quic::version_name(quic::kVersionDraft29), "draft-29");
  EXPECT_EQ(quic::version_name(quic::kVersionQuicPing), "quicping");
  EXPECT_EQ(quic::version_name(0x12345678), "0x12345678");
}

/// Figure-14 boundary sweep: (payload size, dst port, version) -> fires?
struct FingerprintCase {
  std::size_t size;
  std::uint16_t port;
  std::uint32_t version;
  bool fires;
  const char* name;
};

// Printed field by field so the case's test name does not carry the `name`
// pointer, which moves with address-space randomisation and binary layout.
void PrintTo(const FingerprintCase& c, std::ostream* os) {
  *os << "size=" << c.size << " port=" << c.port << " version=0x" << std::hex
      << c.version << std::dec << " fires=" << (c.fires ? "true" : "false");
}

class QuicFingerprint : public ::testing::TestWithParam<FingerprintCase> {};

TEST_P(QuicFingerprint, MatchesSpec) {
  const auto& c = GetParam();
  quic::InitialPacketSpec spec;
  spec.version = c.version;
  spec.padded_size = c.size;
  EXPECT_EQ(quic::tspu_quic_fingerprint(quic::build_initial(spec), c.port),
            c.fires);
}

INSTANTIATE_TEST_SUITE_P(
    Figure14, QuicFingerprint,
    ::testing::Values(
        FingerprintCase{1200, 443, quic::kVersion1, true, "standard_v1"},
        FingerprintCase{1001, 443, quic::kVersion1, true, "exactly_1001"},
        FingerprintCase{1000, 443, quic::kVersion1, false, "one_byte_short"},
        FingerprintCase{900, 443, quic::kVersion1, false, "small"},
        FingerprintCase{65000, 443, quic::kVersion1, true, "jumbo"},
        FingerprintCase{1200, 8443, quic::kVersion1, false, "wrong_port"},
        FingerprintCase{1200, 80, quic::kVersion1, false, "port_80"},
        FingerprintCase{1200, 443, quic::kVersionDraft29, false, "draft29"},
        FingerprintCase{1200, 443, quic::kVersionQuicPing, false, "quicping"},
        FingerprintCase{1200, 443, 0x00000002, false, "version_2"}),
    [](const ::testing::TestParamInfo<FingerprintCase>& tpi) {
      return tpi.param.name;
    });

TEST(QuicFingerprint, FirstByteIrrelevant) {
  // The fingerprint starts "from the second byte" (Appendix A): any first
  // byte matches as long as bytes 1..4 are the v1 version.
  Bytes pkt(1200, 0xff);
  pkt[1] = 0x00;
  pkt[2] = 0x00;
  pkt[3] = 0x00;
  pkt[4] = 0x01;
  for (std::uint8_t first : {0x00, 0x40, 0x80, 0xc0, 0xff}) {
    pkt[0] = first;
    EXPECT_TRUE(quic::tspu_quic_fingerprint(pkt, 443)) << int(first);
  }
}

// ------------------------------------------------------------------- DNS

TEST(Dns, QueryRoundTrip) {
  const auto query = dns::make_query(42, "news.google.com");
  auto parsed = dns::parse(dns::serialize(query));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->id, 42);
  EXPECT_FALSE(parsed->is_response);
  ASSERT_EQ(parsed->questions.size(), 1u);
  EXPECT_EQ(parsed->questions[0].name, "news.google.com");
}

TEST(Dns, ResponseCarriesAddress) {
  const auto query = dns::make_query(7, "blocked.ru");
  const auto resp = dns::make_response(query, Ipv4Addr(5, 16, 0, 80));
  auto parsed = dns::parse(dns::serialize(resp));
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->is_response);
  ASSERT_EQ(parsed->answers.size(), 1u);
  EXPECT_EQ(parsed->answers[0].address, Ipv4Addr(5, 16, 0, 80));
  EXPECT_EQ(parsed->answers[0].name, "blocked.ru");
}

TEST(Dns, Nxdomain) {
  const auto query = dns::make_query(9, "nonexistent.example");
  auto parsed = dns::parse(dns::serialize(dns::make_nxdomain(query)));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->rcode, 3);
  EXPECT_TRUE(parsed->answers.empty());
}

TEST(Dns, RejectsGarbage) {
  EXPECT_FALSE(dns::parse(Bytes{1, 2, 3}));
  EXPECT_FALSE(dns::parse(Bytes{}));
}

TEST(Dns, RejectsBadLabels) {
  dns::Message m = dns::make_query(1, std::string(70, 'a') + ".com");
  EXPECT_THROW(dns::serialize(m), util::ParseError);
}

}  // namespace
