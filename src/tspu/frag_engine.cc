#include "tspu/frag_engine.h"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"
#include "util/statecodec.h"

namespace tspu::core {
namespace {

std::string frag_flow_str(const wire::FragmentKey& key) {
  return key.src.str() + ">" + key.dst.str() +
         " id=" + std::to_string(key.ip_id);
}

}  // namespace

void FragmentEngine::set_budget(TableBudget budget, OverloadPolicy overload) {
  budget_ = budget;
  overload_ = overload;
  overload_state_.reset();
}

void FragmentEngine::note_occupancy(util::Instant now,
                                    std::size_t held_entries,
                                    std::size_t held_bytes) {
  // Gated on bounded(): an unbounded engine keeps its obs output
  // byte-identical to the pre-budget device.
  if (!budget_.bounded()) return;
  // Reconcile lazy expiry before reading occupancy: queues past the timeout
  // but not yet swept must not inflate the gauge or latch overload.enter on
  // dead state. Recursion bottoms out — the sweep recomputes the oldest
  // start over survivors, so its own note_occupancy call sees none due.
  if (table_.expiry_due(now)) expire(now);
  const std::size_t entries = table_.pending_queues() + held_entries;
  if (obs::Recorder* rec = obs::recorder()) {
    rec->metrics.gauge("tspu.frag.occupancy")
        .set_max(static_cast<std::int64_t>(entries));
    rec->metrics.gauge("tspu.frag.buffered_bytes")
        .set_max(static_cast<std::int64_t>(table_.buffered_bytes() +
                                           held_bytes));
  }
  if (overload_state_.update(entries, budget_.max_entries, overload_)) {
    const std::string detail =
        std::to_string(entries) + "/" + std::to_string(budget_.max_entries);
    if (overload_state_.overloaded()) {
      TSPU_OBS_COUNT("tspu.frag.overload.enter");
      if (obs::tracing()) {
        obs::trace_event(obs::Layer::kFrag, "overload.enter", now, {}, detail);
      }
    } else {
      TSPU_OBS_COUNT("tspu.frag.overload.exit");
      if (obs::tracing()) {
        obs::trace_event(obs::Layer::kFrag, "overload.exit", now, {}, detail);
      }
    }
  }
}

void FragmentEngine::evict_one(util::Instant now, const char* reason) {
  const wire::FragmentKey victim =
      budget_.policy == EvictionPolicy::kEvictRandom
          ? table_.evict_nth(static_cast<std::size_t>(
                evict_rng_.next() % table_.pending_queues()))
          : table_.evict_oldest();
  ++stats_.queues_evicted;
  TSPU_OBS_COUNT("tspu.frag.evicted");
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kFrag, "frag.evict", now,
                     frag_flow_str(victim), reason);
  }
  // Shrink re-checks the hysteresis band: an eviction can carry occupancy
  // through exit_fraction, and without this the latch only ever re-evaluated
  // on admission — a shrink-only workload stayed "overloaded" forever.
  note_occupancy(now);
}
bool FragmentEngine::make_room(util::Instant now, bool new_queue,
                               std::size_t add_bytes) {
  const bool over_entries = new_queue && budget_.max_entries != 0 &&
                            table_.pending_queues() >= budget_.max_entries;
  const bool over_bytes = budget_.max_bytes != 0 &&
                          table_.buffered_bytes() + add_bytes > budget_.max_bytes;
  if (!over_entries && !over_bytes &&
      !(budget_.policy == EvictionPolicy::kRejectNew && new_queue &&
        overload_state_.overloaded())) {
    return true;
  }
  // Reclaim timed-out queues before sacrificing live ones.
  expire(now);
  if (budget_.policy == EvictionPolicy::kRejectNew) {
    const bool still_over_entries =
        new_queue && budget_.max_entries != 0 &&
        (overload_state_.overloaded() ||
         table_.pending_queues() >= budget_.max_entries);
    const bool still_over_bytes =
        budget_.max_bytes != 0 &&
        table_.buffered_bytes() + add_bytes > budget_.max_bytes;
    if (still_over_entries || still_over_bytes) {
      ++stats_.fragments_rejected;
      TSPU_OBS_COUNT("tspu.frag.rejected");
      if (obs::tracing()) {
        obs::trace_event(obs::Layer::kFrag, "frag.reject", now, {},
                         still_over_bytes ? "byte-budget" : "entry-budget");
      }
      return false;
    }
    return true;
  }
  if (new_queue && budget_.max_entries != 0) {
    while (table_.pending_queues() >= budget_.max_entries) {
      evict_one(now, "entry-budget");
    }
  }
  if (budget_.max_bytes != 0) {
    while (table_.buffered_bytes() + add_bytes > budget_.max_bytes &&
           table_.pending_queues() != 0) {
      evict_one(now, "byte-budget");
    }
    if (table_.buffered_bytes() + add_bytes > budget_.max_bytes) {
      // A single fragment larger than the whole byte budget: reject it —
      // occupancy may never exceed the budget, whatever the policy.
      ++stats_.fragments_rejected;
      TSPU_OBS_COUNT("tspu.frag.rejected");
      if (obs::tracing()) {
        obs::trace_event(obs::Layer::kFrag, "frag.reject", now, {},
                         "byte-budget");
      }
      return false;
    }
  }
  note_occupancy(now);
  return true;
}

void FragmentEngine::audit(util::Instant now) const {
  // Budget invariants: admission control precedes every buffer, and every
  // erase path returns its bytes, so occupancy never exceeds the budget
  // after any sim event.
  if (budget_.max_entries != 0) {
    TSPU_AUDIT(table_.pending_queues() <= budget_.max_entries,
               "fragment queue count exceeds the entry budget");
  }
  if (budget_.max_bytes != 0) {
    TSPU_AUDIT(table_.buffered_bytes() <= budget_.max_bytes,
               "buffered fragment bytes exceed the byte budget");
  }
  table_.audit(now, audit_cursor_);
}

void FragmentEngine::expire(util::Instant now) {
  const std::size_t dropped =
      table_.expire(now, [&](const wire::FragmentKey& key) {
        ++stats_.queues_discarded_timeout;
        TSPU_OBS_COUNT("tspu.frag.discard.timeout");
        if (obs::tracing()) {
          obs::trace_event(obs::Layer::kFrag, "frag.discard", now,
                           frag_flow_str(key), "age");
        }
      });
  if (dropped != 0) note_occupancy(now);
}

void FragmentEngine::note_discard(const wire::FragmentKey& key,
                                  util::Instant now,
                                  wire::DiscardReason reason) {
  // Duplicate or overlapping fragments poison the whole queue (§5.3.1),
  // unlike RFC 5722's "ignore and keep" — one of the fingerprints that tell
  // the TSPU from other stacks (§7.2). The count-limit reason is the 46th
  // fragment; overlong is a datagram geometry no completion can satisfy.
  const char* name = "overlap";
  switch (reason) {
    case wire::DiscardReason::kOverlap:
      ++stats_.queues_discarded_overlap;
      TSPU_OBS_COUNT("tspu.frag.discard.overlap");
      break;
    case wire::DiscardReason::kCountLimit:
      name = "count-limit";
      ++stats_.queues_discarded_limit;
      TSPU_OBS_COUNT("tspu.frag.discard.limit");
      break;
    case wire::DiscardReason::kOverlong:
      name = "overlong";
      ++stats_.queues_discarded_overlong;
      TSPU_OBS_COUNT("tspu.frag.discard.overlong");
      break;
  }
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kFrag, "frag.discard", now,
                     frag_flow_str(key), name);
  }
  note_occupancy(now);
}

std::vector<wire::Packet> FragmentEngine::push(wire::Packet frag,
                                               util::Instant now,
                                               bool* rejected) {
  // Sweep here rather than inside the table's push so the timeout discards
  // are counted and traced, and land before admission control.
  if (table_.expiry_due(now)) expire(now);

  const wire::FragmentKey key = wire::fragment_key(frag.ip);
  if (budget_.bounded() &&
      !make_room(now, !table_.contains(key), frag.payload.size())) {
    // Admission refused: hand the fragment back to the device so the
    // overload policy (fail-open forward / fail-closed drop) decides.
    if (rejected != nullptr) *rejected = true;
    std::vector<wire::Packet> back;
    back.push_back(std::move(frag));
    return back;
  }
  wire::FragmentPush result = table_.push(std::move(frag), now);
  if (result.kind == wire::FragmentPush::Kind::kDiscarded) {
    note_discard(key, now, result.reason);
    return {};
  }
  // The TSPU preset discards on overlap, so nothing is ever ignored.
  TSPU_DCHECK(result.kind != wire::FragmentPush::Kind::kIgnored,
              "the TSPU never ignores an overlapping fragment");
  ++stats_.fragments_buffered;
  TSPU_OBS_COUNT("tspu.frag.buffered");
  if (!result.complete()) {
    // Publish on EVERY byte-accounted mutation, not just the push that
    // creates a fresh queue: fragments appended to an existing queue grow
    // the buffered bytes too.
    note_occupancy(now);
    if constexpr (util::kAuditEnabled) audit(now);
    return {};
  }

  // Release: forward every buffered fragment individually, all carrying the
  // TTL the offset-0 fragment arrived with (Figure 3). A complete queue
  // always holds one; should an empty fragment share offset 0, the later
  // arrival counts.
  std::vector<wire::Packet> out = std::move(result.fragments);
  const auto first =
      std::find_if(out.rbegin(), out.rend(), [](const wire::Packet& p) {
        return p.ip.is_first_fragment();
      });
  TSPU_CHECK(first != out.rend(), "a complete queue holds offset 0");
  const std::uint8_t ttl = first->ip.ttl;
  std::size_t released_bytes = 0;
  for (wire::Packet& p : out) {
    p.ip.ttl = ttl;
    released_bytes += p.payload.size();
  }
  // The released queue was occupancy up to this fragment: publish that
  // peak first, then the table without it.
  note_occupancy(now, 1, released_bytes);
  note_occupancy(now);
  ++stats_.queues_released;
  TSPU_OBS_COUNT("tspu.frag.released");
  if (obs::Recorder* rec = obs::recorder()) {
    rec->metrics.histogram("tspu.frag.release_size").observe(out.size());
  }
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kFrag, "frag.release", now,
                     frag_flow_str(key),
                     std::to_string(out.size()) + " fragments");
  }
  if constexpr (util::kAuditEnabled) audit(now);
  return out;
}

void FragmentEngine::save_state(util::StateWriter& w) const {
  w.u64(stats_.fragments_buffered);
  w.u64(stats_.queues_released);
  w.u64(stats_.queues_discarded_overlap);
  w.u64(stats_.queues_discarded_limit);
  w.u64(stats_.queues_discarded_timeout);
  w.u64(stats_.queues_discarded_overlong);
  w.u64(stats_.queues_evicted);
  w.u64(stats_.fragments_rejected);
  table_.save_state(w);
  w.boolean(overload_state_.overloaded());
  for (std::uint64_t lane : evict_rng_.state()) w.u64(lane);
}

bool FragmentEngine::load_state(util::StateReader& r) {
  FragEngineStats stats;
  if (!r.u64(stats.fragments_buffered) || !r.u64(stats.queues_released) ||
      !r.u64(stats.queues_discarded_overlap) ||
      !r.u64(stats.queues_discarded_limit) ||
      !r.u64(stats.queues_discarded_timeout) ||
      !r.u64(stats.queues_discarded_overlong) ||
      !r.u64(stats.queues_evicted) || !r.u64(stats.fragments_rejected)) {
    return false;
  }
  wire::FragmentTable table{wire::tspu_fragment_policy()};
  if (!table.load_state(r)) return false;
  bool latched = false;
  if (!r.boolean(latched)) return false;
  std::array<std::uint64_t, 4> lanes{};
  for (std::uint64_t& lane : lanes) {
    if (!r.u64(lane)) return false;
  }
  if (!evict_rng_.set_state(lanes)) return false;
  stats_ = stats;
  table_ = std::move(table);
  overload_state_.restore(latched);
  audit_cursor_ = wire::FragmentKey{};
  return true;
}

}  // namespace tspu::core
