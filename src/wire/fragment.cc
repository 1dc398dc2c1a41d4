#include "wire/fragment.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/check.h"
#include "util/statecodec.h"

namespace tspu::wire {

std::vector<Packet> fragment(const Packet& pkt, std::size_t frag_payload_size) {
  if (frag_payload_size < 8) throw std::invalid_argument("fragment size < 8");
  if (pkt.payload.size() <= frag_payload_size) return {pkt};
  if (pkt.ip.dont_fragment)
    throw std::invalid_argument("cannot fragment packet with DF set");
  if (pkt.ip.is_fragment())
    throw std::invalid_argument("refusing to re-fragment a fragment");

  // All fragments except the last must carry a multiple of 8 bytes.
  const std::size_t step = frag_payload_size - frag_payload_size % 8;
  std::vector<Packet> out;
  out.reserve((pkt.payload.size() + step - 1) / step);
  std::size_t offset = 0;
  while (offset < pkt.payload.size()) {
    const std::size_t n = std::min(step, pkt.payload.size() - offset);
    Packet frag;
    frag.ip = pkt.ip;
    frag.ip.frag_offset = static_cast<std::uint16_t>(offset);
    frag.ip.more_fragments = offset + n < pkt.payload.size();
    frag.payload.assign(pkt.payload.begin() + offset,
                        pkt.payload.begin() + offset + n);
    out.push_back(std::move(frag));
    offset += n;
  }
  return out;
}

std::vector<Packet> fragment_into(const Packet& pkt, std::size_t count) {
  if (count == 0) throw std::invalid_argument("fragment_into count == 0");
  if (count == 1) return {pkt};
  // Every fragment but the last needs at least 8 bytes at an 8-aligned offset.
  if (pkt.payload.size() < count * 8)
    throw std::invalid_argument(
        "payload too small to split into " + std::to_string(count) +
        " fragments (need >= " + std::to_string(count * 8) + " bytes)");
  if (pkt.ip.dont_fragment)
    throw std::invalid_argument("cannot fragment packet with DF set");

  const std::size_t per = (pkt.payload.size() / count) / 8 * 8;
  std::vector<Packet> out;
  out.reserve(count);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const bool last = i + 1 == count;
    const std::size_t n = last ? pkt.payload.size() - offset : (per == 0 ? 8 : per);
    Packet frag;
    frag.ip = pkt.ip;
    frag.ip.frag_offset = static_cast<std::uint16_t>(offset);
    frag.ip.more_fragments = !last;
    frag.payload.assign(pkt.payload.begin() + offset,
                        pkt.payload.begin() + offset + n);
    out.push_back(std::move(frag));
    offset += n;
  }
  return out;
}

bool overlaps_any(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges,
    std::uint32_t offset, std::uint32_t end) {
  return std::any_of(ranges.begin(), ranges.end(), [&](const auto& r) {
    return offset < r.second && r.first < end;
  });
}

std::optional<DiscardReason> FragmentTable::conflict(
    const Queue& q, const Packet& frag) const {
  const std::uint32_t off = frag.ip.frag_offset;
  const std::uint32_t end =
      off + static_cast<std::uint32_t>(frag.payload.size());
  if (overlaps_any(q.ranges, off, end)) return DiscardReason::kOverlap;
  // The fragment past the limit discards the queue: the TSPU accepts 45
  // and drops all 46 (§5.3.1).
  if (q.fragments.size() + 1 > policy_.max_fragments) {
    return DiscardReason::kCountLimit;
  }
  // A tail past the announced total length, or a "last" fragment ending
  // before data already buffered, makes the datagram unsatisfiable. Like
  // Linux's ip_frag_queue, poison the queue instead of letting it linger.
  const bool overlong_tail = q.saw_last && end > q.total_len;
  const bool shrinking_last = !frag.ip.more_fragments && q.max_end > end;
  if (overlong_tail || shrinking_last) return DiscardReason::kOverlong;
  return std::nullopt;
}

void FragmentTable::append(Queue& q, Packet frag) {
  const std::uint32_t off = frag.ip.frag_offset;
  const std::uint32_t len = static_cast<std::uint32_t>(frag.payload.size());
  if (!frag.ip.more_fragments) {
    q.saw_last = true;
    q.total_len = off + len;
  }
  q.ranges.emplace_back(off, off + len);
  q.covered += len;
  q.max_end = std::max(q.max_end, off + len);
  q.fragments.push_back(std::move(frag));
}

FragmentPush FragmentTable::push(Packet frag, util::Instant now) {
  if (expiry_due(now)) expire(now);
  const auto [it, fresh] = queues_.try_emplace(fragment_key(frag.ip));
  Queue& q = it->second;
  if (fresh) {
    q.started = now;
    // A lone queue makes the trigger meaningful again.
    if (queues_.size() == 1 || now < oldest_started_) oldest_started_ = now;
  }
  FragmentPush out;
  if (const auto reason = conflict(q, frag)) {
    if (*reason == DiscardReason::kOverlap &&
        policy_.overlap == OverlapPolicy::kIgnoreNew) {
      out.kind = FragmentPush::Kind::kIgnored;
      return out;
    }
    buffered_bytes_ -= q.covered;
    queues_.erase(it);
    out.kind = FragmentPush::Kind::kDiscarded;
    out.reason = *reason;
    return out;
  }
  buffered_bytes_ += frag.payload.size();
  append(q, std::move(frag));
  if (!q.complete()) return out;
  out.kind = FragmentPush::Kind::kComplete;
  out.fragments = std::move(q.fragments);
  buffered_bytes_ -= q.covered;
  queues_.erase(it);
  return out;
}

FragmentKey FragmentTable::evict(QueueMap::iterator victim) {
  const FragmentKey key = victim->first;
  buffered_bytes_ -= victim->second.covered;
  queues_.erase(victim);
  return key;
}

FragmentKey FragmentTable::evict_oldest() {
  auto victim = queues_.begin();
  for (auto it = queues_.begin(); it != queues_.end(); ++it) {
    if (it->second.started < victim->second.started) victim = it;
  }
  return evict(victim);
}

FragmentKey FragmentTable::evict_nth(std::size_t n) {
  return evict(std::next(queues_.begin(), static_cast<std::ptrdiff_t>(n)));
}

void FragmentTable::clear() {
  queues_.clear();
  buffered_bytes_ = 0;
}

void FragmentTable::audit(util::Instant now, FragmentKey& cursor) const {
  // Bounded rotating sweep, mirroring ConnTracker::audit: per-event cost
  // stays O(1) amortized even when a scan keeps many queues in flight.
  constexpr std::size_t kAuditSlice = 8;
  auto it = queues_.lower_bound(cursor);
  for (std::size_t n = 0; n < kAuditSlice && !queues_.empty(); ++n) {
    if (it == queues_.end()) it = queues_.begin();
    const Queue& q = it->second;
    ++it;
    // The fragment past max_fragments discards the queue, so a surviving
    // queue never holds more (45 for the TSPU, §5.3.1).
    TSPU_AUDIT(q.fragments.size() <= policy_.max_fragments,
               "fragment queue exceeds its policy's fragment limit");
    TSPU_AUDIT(q.ranges.size() == q.fragments.size(),
               "range bookkeeping out of sync with buffered fragments");
    TSPU_AUDIT(q.started <= now, "fragment queue started in the future");
    std::size_t queue_bytes = 0;
    for (const Packet& p : q.fragments) queue_bytes += p.payload.size();
    TSPU_AUDIT(queue_bytes == q.covered,
               "per-queue byte accounting out of sync with fragments");
    auto sorted = q.ranges;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      TSPU_AUDIT(sorted[i].second <= sorted[i + 1].first,
                 "overlapping fragments survived in a queue");
    }
    if (q.saw_last) {
      TSPU_AUDIT(q.max_end <= q.total_len,
                 "fragment extends past the datagram's total length");
    }
  }
  cursor = it == queues_.end() ? FragmentKey{} : it->first;
}

void FragmentTable::save_state(util::StateWriter& w) const {
  w.u32(static_cast<std::uint32_t>(queues_.size()));
  for (const auto& [key, q] : queues_) {
    w.u32(key.src.value());
    w.u32(key.dst.value());
    w.u16(key.ip_id);
    w.i64(q.started.as_micros());
    w.u32(static_cast<std::uint32_t>(q.fragments.size()));
    // Qualified: the member save_state would otherwise hide the free one.
    for (const Packet& f : q.fragments) ::tspu::wire::save_state(f, w);
  }
}

bool FragmentTable::load_state(util::StateReader& r) {
  QueueMap loaded;
  std::size_t loaded_bytes = 0;
  util::Instant oldest;
  std::uint32_t n_queues = 0;
  if (!r.u32(n_queues)) return false;
  for (std::uint32_t i = 0; i < n_queues; ++i) {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    FragmentKey key;
    std::int64_t started_us = 0;
    std::uint32_t n_frags = 0;
    if (!r.u32(src) || !r.u32(dst) || !r.u16(key.ip_id) ||
        !r.i64(started_us) || !r.u32(n_frags)) {
      return false;
    }
    key.src = util::Ipv4Addr(src);
    key.dst = util::Ipv4Addr(dst);
    if (n_frags == 0 || n_frags > policy_.max_fragments) return false;
    Queue q;
    q.started = util::Instant::from_micros(started_us);
    // Replay the admission rules: the queue's bookkeeping is rebuilt from
    // its fragments, and a snapshot this policy could not have produced is
    // refused rather than trusted.
    for (std::uint32_t j = 0; j < n_frags; ++j) {
      Packet f;
      if (!::tspu::wire::load_state(f, r)) return false;
      if (!f.ip.is_fragment() || fragment_key(f.ip) != key ||
          conflict(q, f)) {
        return false;
      }
      append(q, std::move(f));
    }
    if (q.complete()) return false;  // a complete queue is never pending
    loaded_bytes += q.covered;
    if (loaded.empty() || q.started < oldest) oldest = q.started;
    if (!loaded.emplace(key, std::move(q)).second) return false;
  }
  queues_ = std::move(loaded);
  buffered_bytes_ = loaded_bytes;
  oldest_started_ = oldest;
  return true;
}

Packet reassemble(const std::vector<Packet>& fragments) {
  const auto first =
      std::find_if(fragments.begin(), fragments.end(),
                   [](const Packet& p) { return p.ip.frag_offset == 0; });
  const auto last =
      std::find_if(fragments.begin(), fragments.end(),
                   [](const Packet& p) { return !p.ip.more_fragments; });
  TSPU_CHECK(first != fragments.end() && last != fragments.end(),
             "reassembly needs the first and the last fragment");
  Packet whole;
  whole.ip = first->ip;
  whole.ip.more_fragments = false;
  whole.ip.frag_offset = 0;
  whole.payload.resize(last->ip.frag_offset + last->payload.size());
  for (const Packet& f : fragments) {
    // Guard the copy itself: a fragment extending past the total length
    // declared by the MF=0 fragment's IPv4 header would corrupt memory.
    TSPU_CHECK(f.ip.frag_offset + f.payload.size() <= whole.payload.size(),
               "fragment extends past the reassembled datagram");
    std::copy(f.payload.begin(), f.payload.end(),
              whole.payload.begin() + f.ip.frag_offset);
  }
  return whole;
}

}  // namespace tspu::wire
