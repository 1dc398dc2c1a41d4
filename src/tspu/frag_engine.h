// The TSPU's IP-fragment handling (§5.3.1): buffer fragments, forward them
// individually (never reassembled) once the datagram is complete, rewriting
// every fragment's TTL to the TTL the FIRST (offset-0) fragment arrived with.
//
// Restrictions enforced, all observed in the paper and all used as remote
// fingerprints in §7.2:
//  * duplicate or overlapping fragment  -> whole queue discarded
//  * more than 45 fragments in a queue  -> whole queue discarded
//  * queue incomplete after ~5 seconds  -> whole queue discarded
#pragma once

#include <vector>

#include "tspu/budget.h"
#include "util/rng.h"
#include "util/time.h"
#include "wire/fragment.h"
#include "wire/ipv4.h"

namespace tspu::util {
class StateReader;
class StateWriter;
}  // namespace tspu::util

namespace tspu::core {

struct FragEngineStats {
  std::uint64_t fragments_buffered = 0;
  std::uint64_t queues_released = 0;
  std::uint64_t queues_discarded_overlap = 0;
  std::uint64_t queues_discarded_limit = 0;
  std::uint64_t queues_discarded_timeout = 0;
  std::uint64_t queues_discarded_overlong = 0;
  // ---- budget accounting (zero while unbounded) ----
  std::uint64_t queues_evicted = 0;      ///< whole queues evicted at capacity
  std::uint64_t fragments_rejected = 0;  ///< fragments refused admission
};

/// The TSPU layer over a wire::FragmentTable running the TSPU preset:
/// capacity budget, eviction and overload latch, the tspu.frag.* counters
/// and traces, the stats, and the release step's TTL rewrite.
class FragmentEngine {
 public:
  /// Installs (or replaces) the capacity budget and overload hysteresis
  /// band: max_entries caps in-flight queues, max_bytes the total buffered
  /// fragment payload. Defined out-of-line so the budget/gauge pairing is
  /// visible to tspulint.
  void set_budget(TableBudget budget, OverloadPolicy overload);
  const TableBudget& budget() const { return budget_; }

  /// Reseeds the eviction RNG stream and drops the overload latch
  /// (Device::reseed, trial boundaries).
  void reseed_eviction(std::uint64_t seed) {
    evict_rng_.reseed(seed);
    overload_state_.reset();
  }

  bool overloaded() const { return overload_state_.overloaded(); }

  /// Feeds one fragment. Returns the packets to forward NOW: empty while
  /// buffering or discarding; the full fragment set (TTL-rewritten, in
  /// arrival order) when the last hole fills. When the budget REJECTS the
  /// fragment (RejectNew at capacity), returns the original fragment and
  /// sets *rejected — the device then applies its overload policy to it
  /// instead of treating it as a release.
  std::vector<wire::Packet> push(wire::Packet frag, util::Instant now,
                                 bool* rejected = nullptr);

  /// Discards queues older than the 5-second limit. push() runs this
  /// lazily, exactly when some queue has actually timed out; explicit calls
  /// sweep fully.
  void expire(util::Instant now);

  /// TSPU_AUDIT sweep (debug builds): the budget holds, and the table's
  /// own sweep (45-fragment limit, disjoint ranges, no future start).
  void audit(util::Instant now) const;

  std::size_t pending_queues() const { return table_.pending_queues(); }
  /// Total buffered fragment payload bytes — what max_bytes polices.
  std::size_t buffered_bytes() const { return table_.buffered_bytes(); }
  const FragEngineStats& stats() const { return stats_; }

  /// Checkpoint serialization: stats, the table's queues, the overload
  /// latch, and the eviction RNG cursor. Budget config is excluded (replica
  /// construction owns it).
  void save_state(util::StateWriter& w) const;

  /// Replaces the engine's runtime state with a saved one; false on
  /// truncation, out-of-range values, or duplicate queue keys.
  bool load_state(util::StateReader& r);

 private:
  /// Counts and traces a queue the table dropped.
  void note_discard(const wire::FragmentKey& key, util::Instant now,
                    wire::DiscardReason reason);
  /// Admission control before buffering: sweeps timed-out queues, then at
  /// capacity evicts whole queues per policy or rejects the fragment.
  bool make_room(util::Instant now, bool new_queue, std::size_t add_bytes);
  /// Evicts one whole queue (counted + traced with `reason`).
  void evict_one(util::Instant now, const char* reason);
  /// Publishes the occupancy gauge and drives the overload latch. `held_*`
  /// counts a queue that has just left the table on release but was
  /// occupancy until then.
  void note_occupancy(util::Instant now, std::size_t held_entries = 0,
                      std::size_t held_bytes = 0);

  wire::FragmentTable table_{wire::tspu_fragment_policy()};
  FragEngineStats stats_;
  TableBudget budget_;
  OverloadPolicy overload_;
  OverloadState overload_state_;
  /// Eviction choices for kEvictRandom; reseeded per trial.
  util::Rng evict_rng_{0xf4a6ull};
  /// Resume point for audit()'s rotating sweep (Debug builds only).
  mutable wire::FragmentKey audit_cursor_{};
};

}  // namespace tspu::core
