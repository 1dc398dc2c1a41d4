// IP fragmentation: splitting, overlap detection, and the policy-configured
// fragment table every fragment handler in the simulation shares.
//
// One FragmentTable with one FragmentPolicy row per device family: the
// TSPU's buffer-and-forward engine (tspu::FragmentEngine, §5.3.1), every
// host's reassembly, and the negative-control middleboxes (Linux-, Cisco-
// and Juniper-like, §7.2) differ only in policy and in what they do with a
// complete queue.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/ip.h"
#include "util/time.h"
#include "wire/ipv4.h"

namespace tspu::wire {

/// Key identifying one fragment queue: the paper observes TSPU keys queues by
/// (source, destination, IPID) (§5.3.1).
struct FragmentKey {
  util::Ipv4Addr src;
  util::Ipv4Addr dst;
  std::uint16_t ip_id = 0;

  friend auto operator<=>(const FragmentKey&, const FragmentKey&) = default;
};

inline FragmentKey fragment_key(const Ipv4Header& h) {
  return FragmentKey{h.src, h.dst, h.id};
}

/// Splits `pkt` into fragments whose payloads are at most `frag_payload_size`
/// bytes (rounded down to a multiple of 8 except for the last fragment).
/// A packet that already fits is returned unchanged as a single element.
/// Throws std::invalid_argument if the packet has DF set and would need
/// splitting, or if frag_payload_size < 8.
std::vector<Packet> fragment(const Packet& pkt, std::size_t frag_payload_size);

/// Splits `pkt` into exactly `count` fragments of near-equal size (all offsets
/// 8-aligned). Used by the fragmentation-fingerprint probes that need "45
/// fragments" vs "46 fragments" of a single SYN (§7.2). Throws if the payload
/// cannot be cut into `count` non-empty 8-aligned pieces.
std::vector<Packet> fragment_into(const Packet& pkt, std::size_t count);

/// True if fragment `b` duplicates or overlaps the byte range of any fragment
/// already recorded in `ranges` (pairs of [offset, end)).
bool overlaps_any(const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges,
                  std::uint32_t offset, std::uint32_t end);

/// What a fragment table does with a duplicate or overlapping fragment.
enum class OverlapPolicy : std::uint8_t {
  kDiscardQueue,  ///< TSPU behavior: drop the whole queue (§5.3.1)
  kIgnoreNew,     ///< RFC 5722 / Linux: drop the new fragment, keep the queue
};

/// One device family's fragment-queue behavior: the three knobs the §7.2
/// fingerprint tells families apart by.
struct FragmentPolicy {
  std::uint32_t max_fragments;  ///< the fragment past this discards the queue
  OverlapPolicy overlap;
  util::Duration timeout;  ///< a queue older than this is discarded
};

/// The TSPU (§5.3.1): 45 fragments, 5 s, overlap poisons the queue.
constexpr FragmentPolicy tspu_fragment_policy() {
  return {45, OverlapPolicy::kDiscardQueue, util::Duration::seconds(5)};
}
/// The controls the paper cites ([6, 14, 15], §7.2). Linux is also what
/// every simulated host and the patched device's inspection run.
constexpr FragmentPolicy linux_like_reassembly() {
  return {64, OverlapPolicy::kIgnoreNew, util::Duration::seconds(30)};
}
constexpr FragmentPolicy cisco_like_reassembly() {
  return {24, OverlapPolicy::kIgnoreNew, util::Duration::seconds(3)};
}
constexpr FragmentPolicy juniper_like_reassembly() {
  return {250, OverlapPolicy::kIgnoreNew, util::Duration::seconds(30)};
}

/// Why FragmentTable::push dropped a whole queue.
enum class DiscardReason : std::uint8_t {
  kOverlap,     ///< duplicate/overlapping fragment under kDiscardQueue
  kCountLimit,  ///< one fragment more than max_fragments
  kOverlong,    ///< tail past the announced length, or a shrinking last
};

/// What FragmentTable::push did with one fragment.
struct FragmentPush {
  enum class Kind : std::uint8_t {
    kBuffered,   ///< queued; the datagram still has holes
    kIgnored,    ///< overlapping fragment dropped, queue kept (kIgnoreNew)
    kDiscarded,  ///< the whole queue was dropped for `reason`
    kComplete,   ///< last hole filled; the queue left the table
  };
  Kind kind = Kind::kBuffered;
  DiscardReason reason = DiscardReason::kOverlap;  ///< kDiscarded only
  /// kComplete only: the datagram's fragments in arrival order.
  std::vector<Packet> fragments;

  bool complete() const { return kind == Kind::kComplete; }
};

/// Per-(src, dst, IPID) fragment queues under one FragmentPolicy: the one
/// queue mechanism behind hosts, the TSPU's FragmentEngine and the control
/// middleboxes. What a caller does with a complete queue (reassemble,
/// forward the fragments, rewrite TTLs) stays with the caller. The table
/// emits no obs counters or traces.
class FragmentTable {
 public:
  explicit FragmentTable(FragmentPolicy policy) : policy_(policy) {}

  /// Feeds one fragment (callers route only is_fragment() packets here).
  /// Queues past the timeout are swept first, so a fresh datagram never
  /// joins a stale queue that reuses its key. Takes the fragment by value
  /// so the per-packet path can move the payload buffer into the queue.
  FragmentPush push(Packet frag, util::Instant now);

  /// True once some queue may have timed out. Expiry is lazy: it runs only
  /// when the oldest queue is past the timeout, so a burst of N fragments
  /// costs O(N) instead of O(N x queues), and it discards exactly what a
  /// sweep before every push would.
  bool expiry_due(util::Instant now) const {
    return !queues_.empty() && now - oldest_started_ > policy_.timeout;
  }

  /// Drops every queue whose first fragment arrived more than `timeout`
  /// before `now`, calling on_expired(key) for each in key order. Returns
  /// how many were dropped.
  template <typename OnExpired>
  std::size_t expire(util::Instant now, OnExpired&& on_expired);
  std::size_t expire(util::Instant now) {
    return expire(now, [](const FragmentKey&) {});
  }

  /// Removes one whole queue for a budgeted caller and returns its key:
  /// the earliest-started one (first in key order on ties), or the n-th
  /// in key order.
  FragmentKey evict_oldest();
  FragmentKey evict_nth(std::size_t n);

  void clear();

  bool contains(const FragmentKey& key) const {
    return queues_.find(key) != queues_.end();
  }
  std::size_t pending_queues() const { return queues_.size(); }
  /// Total buffered fragment payload bytes.
  std::size_t buffered_bytes() const { return buffered_bytes_; }

  /// TSPU_AUDIT sweep (debug builds) over a bounded slice of the queues,
  /// resuming at `cursor` and advancing it: each holds at most
  /// max_fragments disjoint fragments inside the announced length, its byte
  /// count matches, and it started by `now`.
  void audit(util::Instant now, FragmentKey& cursor) const;

  /// Checkpoint codec for every pending queue: key, start time and the
  /// fragments. The policy belongs to construction; everything else is
  /// derived from the fragments on load.
  void save_state(util::StateWriter& w) const;

  /// Replaces all queues with the saved set; false (and no change) on
  /// truncation, duplicate keys, or a queue the policy could not hold.
  bool load_state(util::StateReader& r);

 private:
  struct Queue {
    std::vector<Packet> fragments;  ///< arrival order
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    util::Instant started;
    std::uint32_t covered = 0;  ///< payload bytes; ranges never overlap
    std::uint32_t max_end = 0;
    std::uint32_t total_len = 0;  ///< known once the MF=0 fragment arrives
    bool saw_last = false;

    /// Ranges are disjoint, so covering total_len bytes fills every hole.
    bool complete() const {
      return saw_last && max_end == total_len && covered == total_len;
    }
  };
  using QueueMap = std::map<FragmentKey, Queue>;

  /// The rule `frag` would break by joining `q`, if any.
  std::optional<DiscardReason> conflict(const Queue& q,
                                        const Packet& frag) const;
  void append(Queue& q, Packet frag);
  FragmentKey evict(QueueMap::iterator victim);

  FragmentPolicy policy_;
  QueueMap queues_;
  std::size_t buffered_bytes_ = 0;
  /// Start time of the oldest queue, meaningful while any queue is
  /// pending. May be stale (an already-erased queue) after a release or
  /// discard, which only makes a sweep run early: the oldest queue times
  /// out no later than any other. Every host holds a table, so the table
  /// stays small.
  util::Instant oldest_started_;
};

template <typename OnExpired>
std::size_t FragmentTable::expire(util::Instant now, OnExpired&& on_expired) {
  std::size_t dropped = 0;
  oldest_started_ = now;  // no survivor started later than now
  for (auto it = queues_.begin(); it != queues_.end();) {
    if (now - it->second.started > policy_.timeout) {
      on_expired(it->first);
      buffered_bytes_ -= it->second.covered;
      it = queues_.erase(it);
      ++dropped;
    } else {
      oldest_started_ = std::min(oldest_started_, it->second.started);
      ++it;
    }
  }
  return dropped;
}

/// Rebuilds the datagram a complete queue's fragments carry: the header of
/// the first-arrived offset-0 fragment, the payload laid out by offset.
Packet reassemble(const std::vector<Packet>& fragments);

}  // namespace tspu::wire
