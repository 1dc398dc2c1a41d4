// Micro-bench for lazy fragment-queue expiry: a full expire(now) sweep per
// fragment makes a fragmentation scan quadratic in the number of in-flight
// queues, so wire::FragmentTable sweeps only when the oldest queue has
// actually timed out. This bench drives both cost models over the same
// workload and asserts that every outcome counter is identical, i.e. the
// optimisation changed wall time and nothing else. It runs twice: through
// the TSPU's FragmentEngine (45 fragments, 5 s, counted by the engine's own
// stats) and through a bare table under the Linux preset that every host
// and control middlebox runs (64 fragments, 30 s, ignore-new).
//
// "eager" is reconstructed by explicitly calling expire(now) before every
// push. TSPU_BENCH_SCALE scales the queue population.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "tspu/frag_engine.h"
#include "util/ip.h"
#include "util/time.h"
#include "wire/fragment.h"
#include "wire/ipv4.h"

using namespace tspu;
using util::Duration;
using util::Instant;

namespace {

// The workload: `queues` interleaved 3-fragment datagrams. Every queue's
// first two fragments arrive up front (so the table holds `queues`
// concurrent incomplete queues), then a long completion phase pushes the
// closing fragments one by one — the regime where the per-push sweep cost
// dominated. A final batch is left to age past the policy's timeout so the
// timeout-discard path is exercised too.
std::vector<std::pair<wire::Packet, Instant>> build_workload(
    int queues, Duration timeout) {
  std::vector<std::pair<wire::Packet, Instant>> events;
  events.reserve(static_cast<std::size_t>(queues) * 3);
  const Instant t0;
  std::vector<std::vector<wire::Packet>> frag_sets;
  frag_sets.reserve(static_cast<std::size_t>(queues));
  for (int i = 0; i < queues; ++i) {
    wire::Packet pkt;
    pkt.ip.src = util::Ipv4Addr(10, 0, static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i & 0xff));
    pkt.ip.dst = util::Ipv4Addr(2, 2, 2, 2);
    pkt.ip.id = static_cast<std::uint16_t>(i);
    pkt.ip.ttl = 60;
    pkt.payload.assign(120, 0xab);
    frag_sets.push_back(wire::fragment(pkt, 40));
  }
  Instant t = t0;
  for (int i = 0; i < queues; ++i) {
    events.emplace_back(frag_sets[static_cast<std::size_t>(i)][0], t);
    events.emplace_back(frag_sets[static_cast<std::size_t>(i)][1], t);
    t = t + Duration::micros(10);
  }
  // Complete the first 90%; the rest age out: their closing fragment
  // arrives a second after the queue has already timed out.
  const int completed = queues * 9 / 10;
  for (int i = 0; i < completed; ++i) {
    events.emplace_back(frag_sets[static_cast<std::size_t>(i)][2], t);
    t = t + Duration::micros(10);
  }
  const Instant late = t + timeout + Duration::seconds(1);
  for (int i = completed; i < queues; ++i) {
    events.emplace_back(frag_sets[static_cast<std::size_t>(i)][2], late);
  }
  return events;
}

struct Counts {
  std::uint64_t buffered = 0;
  std::uint64_t released = 0;
  std::uint64_t timeout = 0;
  std::uint64_t overlap = 0;
  std::uint64_t limit = 0;
  std::uint64_t overlong = 0;
};

struct RunResult {
  double wall_seconds = 0;
  Counts counts;
};

using Events = std::vector<std::pair<wire::Packet, Instant>>;

template <typename Body>
RunResult timed(Body&& body) {
  RunResult r;
  const auto start = std::chrono::steady_clock::now();
  r.counts = body();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

RunResult run_tspu(const Events& events, bool eager) {
  return timed([&] {
    core::FragmentEngine engine;
    for (const auto& [pkt, t] : events) {
      if (eager) engine.expire(t);  // the per-fragment full sweep
      engine.push(pkt, t);
    }
    const core::FragEngineStats& s = engine.stats();
    return Counts{s.fragments_buffered,       s.queues_released,
                  s.queues_discarded_timeout, s.queues_discarded_overlap,
                  s.queues_discarded_limit,   s.queues_discarded_overlong};
  });
}

RunResult run_host(const Events& events, bool eager) {
  return timed([&] {
    wire::FragmentTable table{wire::linux_like_reassembly()};
    Counts c;
    for (const auto& [pkt, t] : events) {
      // Lazy: the same trigger push() applies, made explicit so the
      // timeout discards can be counted.
      if (eager || table.expiry_due(t)) c.timeout += table.expire(t);
      const wire::FragmentPush out = table.push(pkt, t);
      switch (out.kind) {
        case wire::FragmentPush::Kind::kBuffered:
          ++c.buffered;
          break;
        case wire::FragmentPush::Kind::kComplete:
          ++c.buffered;
          ++c.released;
          break;
        case wire::FragmentPush::Kind::kIgnored:
          ++c.overlap;
          break;
        case wire::FragmentPush::Kind::kDiscarded:
          ++(out.reason == wire::DiscardReason::kCountLimit ? c.limit
                                                             : c.overlong);
          break;
      }
    }
    return c;
  });
}

// The optimisation's contract: identical observable behavior. Any drift in
// a counter means lazy expiry changed discard timing.
void require_identical(const char* preset, const Counts& eager,
                       const Counts& lazy) {
  const std::pair<const char*, bool> checks[] = {
      {"released", eager.released == lazy.released},
      {"discarded_timeout", eager.timeout == lazy.timeout},
      {"discarded_overlap", eager.overlap == lazy.overlap},
      {"discarded_limit", eager.limit == lazy.limit},
      {"discarded_overlong", eager.overlong == lazy.overlong},
      {"fragments_buffered", eager.buffered == lazy.buffered},
  };
  for (const auto& [what, ok] : checks) {
    if (!ok) {
      std::fprintf(stderr, "FATAL: %s eager/lazy mismatch: %s\n", preset,
                   what);
      std::exit(1);
    }
  }
}

void print_case(const char* preset, const RunResult& eager,
                const RunResult& lazy) {
  const double speedup =
      lazy.wall_seconds > 0 ? eager.wall_seconds / lazy.wall_seconds : 0;
  std::printf("%s preset\n", preset);
  std::printf("  eager (per-push sweep): %8.3f s\n", eager.wall_seconds);
  std::printf("  lazy  (shipped table):  %8.3f s\n", lazy.wall_seconds);
  std::printf("  speedup: %.1fx; discards identical "
              "(released=%llu timeout=%llu overlap=%llu limit=%llu)\n",
              speedup, static_cast<unsigned long long>(lazy.counts.released),
              static_cast<unsigned long long>(lazy.counts.timeout),
              static_cast<unsigned long long>(lazy.counts.overlap),
              static_cast<unsigned long long>(lazy.counts.limit));
  // Wall times are runtime facts, not headline: they vary run to run.
  std::fprintf(stderr, "%s speedup: %.2fx\n", preset, speedup);
}

}  // namespace

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("frag_expiry_microbench");
  const int queues =
      static_cast<int>(20000 * report.scale());
  bench::banner("frag expiry microbench",
                "lazy vs eager queue-timeout sweeps, " +
                    std::to_string(queues) + " interleaved queues");

  const auto tspu_events =
      build_workload(queues, wire::tspu_fragment_policy().timeout);
  const RunResult eager = run_tspu(tspu_events, /*eager=*/true);
  const RunResult lazy = run_tspu(tspu_events, /*eager=*/false);
  require_identical("TSPU", eager.counts, lazy.counts);
  print_case("TSPU", eager, lazy);

  const auto host_events =
      build_workload(queues, wire::linux_like_reassembly().timeout);
  const RunResult host_eager = run_host(host_events, /*eager=*/true);
  const RunResult host_lazy = run_host(host_events, /*eager=*/false);
  require_identical("host (Linux)", host_eager.counts, host_lazy.counts);
  print_case("host (Linux)", host_eager, host_lazy);

  // Only the behavior counters go into the deterministic section.
  report.metric("queues", static_cast<long long>(queues));
  report.metric("released", static_cast<long long>(lazy.counts.released));
  report.metric("discard_timeout",
                static_cast<long long>(lazy.counts.timeout));
  report.metric("host_released",
                static_cast<long long>(host_lazy.counts.released));
  report.metric("host_discard_timeout",
                static_cast<long long>(host_lazy.counts.timeout));
  report.write();
  return 0;
}
