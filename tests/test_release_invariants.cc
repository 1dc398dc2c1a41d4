// Release-mode invariants: behaviors that used to lean on TSPU_AUDIT (a
// Debug-only throw) or on internal asserts are pinned here via public
// observables — engine stats, flight-recorder counters, and returned
// references — so they hold identically under NDEBUG. This file is part of
// why CI now builds a Release tier-1 leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "tspu/conntrack.h"
#include "tspu/frag_engine.h"
#include "tspu/timeouts.h"
#include "util/ip.h"
#include "util/time.h"
#include "wire/fragment.h"
#include "wire/ipv4.h"
#include "wire/tcp.h"

namespace tspu::core {
namespace {

using util::Duration;
using util::Instant;
using util::Ipv4Addr;

wire::Packet datagram(std::size_t size, std::uint16_t id) {
  wire::Packet pkt;
  pkt.ip.src = Ipv4Addr(1, 1, 1, 1);
  pkt.ip.dst = Ipv4Addr(2, 2, 2, 2);
  pkt.ip.id = id;
  pkt.ip.ttl = 60;
  pkt.payload.assign(size, 0xab);
  return pkt;
}

// ------------------------------------------------- frag: overlong discard

// An over-long fragment arriving AFTER the last fragment fixed the datagram
// length used to be an audit-only throw: Release builds buffered the bogus
// fragment and kept the queue alive. The engine now discard-queues in every
// build mode, and the dedicated stats counter proves which path fired.
TEST(ReleaseInvariants, OverlongTailFragmentDiscardsQueue) {
  FragmentEngine engine;
  const Instant now;
  auto frags = wire::fragment(datagram(120, 1), 40);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_TRUE(engine.push(frags[0], now).empty());
  EXPECT_TRUE(engine.push(frags[2], now).empty());  // last: total_len known

  wire::Packet beyond = frags[1];
  // Starts exactly at total_len (no overlap with buffered data), so only the
  // overlong rule can reject it.
  beyond.ip.frag_offset = frags[2].ip.frag_offset + 40;
  EXPECT_TRUE(engine.push(beyond, now).empty());
  EXPECT_EQ(engine.pending_queues(), 0u);
  EXPECT_EQ(engine.stats().queues_discarded_overlong, 1u);
  EXPECT_EQ(engine.stats().queues_released, 0u);
}

TEST(ReleaseInvariants, ShrinkingLastFragmentDiscardsQueue) {
  // The mirror ordering: a "last" fragment whose end undercuts data already
  // buffered beyond it claims a total length that contradicts the queue.
  FragmentEngine engine;
  const Instant now;
  auto frags = wire::fragment(datagram(120, 2), 40);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_TRUE(engine.push(frags[1], now).empty());  // middle fragment first

  wire::Packet early_last = frags[0];
  early_last.ip.more_fragments = false;  // claims the datagram ends at 40
  EXPECT_TRUE(engine.push(early_last, now).empty());
  EXPECT_EQ(engine.pending_queues(), 0u);
  EXPECT_EQ(engine.stats().queues_discarded_overlong, 1u);
}

// ------------------------------------------------- frag: lazy expiry

TEST(ReleaseInvariants, LazyExpiryFiresOnPushWithoutExplicitSweep) {
  // push() itself must honor the 5-second timeout: the sweep is lazy, but a
  // fragment arriving after some queue has timed out triggers it, so discard
  // timing is observably identical to the old every-push sweep.
  FragmentEngine engine;
  const Instant now;
  auto stale = wire::fragment(datagram(80, 3), 40);
  engine.push(stale[0], now);
  ASSERT_EQ(engine.pending_queues(), 1u);

  auto fresh = wire::fragment(datagram(80, 4), 40);
  engine.push(fresh[0], now + Duration::seconds(6));
  EXPECT_EQ(engine.stats().queues_discarded_timeout, 1u);
  EXPECT_EQ(engine.pending_queues(), 1u);  // only the fresh queue survives
}

// ------------------------------------------------- frag: 45/46 boundary

TEST(ReleaseInvariants, FragmentBoundaryObservableViaObsCounters) {
  // The paper's 45-fragment fingerprint read off flight-recorder counters
  // instead of engine internals — the form the Release CI leg exercises.
  obs::Recorder rec;
  obs::RecorderScope scope(rec);
  FragmentEngine engine;
  const Instant now;

  for (const auto& f : wire::fragment_into(datagram(400, 5), 45)) {
    engine.push(f, now);
  }
  EXPECT_EQ(rec.metrics.counter_value("tspu.frag.released"), 1u);
  EXPECT_EQ(rec.metrics.counter_value("tspu.frag.discard.limit"), 0u);

  for (const auto& f : wire::fragment_into(datagram(400, 6), 46)) {
    engine.push(f, now);
  }
  EXPECT_EQ(rec.metrics.counter_value("tspu.frag.released"), 1u);
  EXPECT_EQ(rec.metrics.counter_value("tspu.frag.discard.limit"), 1u);
  EXPECT_EQ(rec.metrics.counter_value("tspu.frag.buffered"),
            engine.stats().fragments_buffered);
}

// ------------------------------------------------- conntrack: expiry

TEST(ReleaseInvariants, ConntrackExpiryObservableViaObsCounters) {
  obs::Recorder rec;
  obs::RecorderScope scope(rec);
  ConnTracker tracker{ConntrackTimeouts{}, BlockingTimeouts{}};
  const Instant now;
  FlowKey key;
  key.local = Ipv4Addr(10, 0, 0, 1);
  key.remote = Ipv4Addr(93, 184, 216, 34);
  key.local_port = 40000;
  key.remote_port = 443;

  tracker.track_tcp(key, wire::kSyn, /*from_local=*/true, now);
  EXPECT_EQ(rec.metrics.counter_value("tspu.conntrack.created"), 1u);
  EXPECT_EQ(rec.metrics.counter_value("tspu.conntrack.expired"), 0u);

  // A bare local SYN times out after the kLocalSynSent inactivity window;
  // the lazy eviction inside find() must count exactly one expiry.
  const Duration timeout = tracker.state_timeout(ConnState::kLocalSynSent);
  EXPECT_EQ(tracker.find(key, now + timeout + Duration::seconds(1)), nullptr);
  EXPECT_EQ(rec.metrics.counter_value("tspu.conntrack.expired"), 1u);

  // And the sweep path (live_entries) counts the same way.
  tracker.track_tcp(key, wire::kSyn, true, now + timeout + Duration::seconds(2));
  EXPECT_EQ(tracker.live_entries(now + timeout * 2 + Duration::seconds(4)), 0u);
  EXPECT_EQ(rec.metrics.counter_value("tspu.conntrack.expired"), 2u);
}

// ------------------------------------------------- conntrack: references

TEST(ReleaseInvariants, ConntrackReferencesSurviveInterleavedInserts) {
  // Regression pin for the reference-stability contract (see the
  // static_assert on ConnTracker::Table): Device::handle_tcp holds the entry
  // reference for flow A across tracker calls that insert flows B, C, ... —
  // with node-stable storage both the address and the contents must hold.
  ConnTracker tracker{ConntrackTimeouts{}, BlockingTimeouts{}};
  const Instant now;
  FlowKey a;
  a.local = Ipv4Addr(10, 0, 0, 1);
  a.remote = Ipv4Addr(93, 184, 216, 34);
  a.local_port = 40000;
  a.remote_port = 443;

  ConnEntry& held = tracker.track_tcp(a, wire::kSyn, true, now);
  held.block = BlockMode::kSniRstAck;
  ConnEntry* const held_addr = &held;

  for (int i = 0; i < 64; ++i) {
    FlowKey b = a;
    b.local_port = static_cast<std::uint16_t>(41000 + i);
    tracker.track_tcp(b, wire::kSyn, true, now);
  }
  ASSERT_EQ(tracker.size(), 65u);

  // Same node, same state: the reference neither moved nor was clobbered.
  ConnEntry* found = tracker.find(a, now);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, held_addr);
  EXPECT_EQ(held.block, BlockMode::kSniRstAck);
  EXPECT_EQ(held.state, ConnState::kLocalSynSent);
}

}  // namespace
}  // namespace tspu::core
