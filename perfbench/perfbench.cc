// tspu_perfbench: the repository benchmark program.
//
// Runs one of three campaign workloads through the library's public entry
// points and checks every verdict against the simulator's ground truth:
//
//   national_scan  measure::parallel_scan (fingerprint only) over a
//                  paper-AS-count NationalTopology, jobs = min(4, nproc)
//   sni_sweep      the Figure-1 Scenario sweeping the Tranco + registry
//                  corpus with DomainTester::test_domain (kStandard), jobs=1
//   faulted_scan   measure::parallel_scan with retry over a 400-AS world
//                  with bursty loss and a fail-closed device flap, jobs=1
//
// Untraced mode (the default) prints the end-to-end metrics, with times
// scaled to a nominal host speed read by HostGauge around every timed
// call (the unscaled figures go to the "detail" line). --trace 1
// drives the same items one at a time on one replica, wraps the layers'
// public calls in wall-clock spans, and prints the per-layer metrics. Spans
// stay in memory and are written out (JSONL) at the end. The flight
// recorder is bound with counters only in both modes.
//
// Usage:
//   tspu_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--jobs <n>] [--tiny] [--invert-truth] [--spans-out <path>]
//
// Every output line is one JSON object; the last line is the result
// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds and
// runs this binary; see perfbench/NOTES.md for the workloads and metrics.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "measure/common.h"
#include "measure/domain_tester.h"
#include "measure/frag_probe.h"
#include "measure/scan.h"
#include "netsim/faults.h"
#include "obs/obs.h"
#include "runner/runner.h"
#include "topo/national.h"
#include "topo/scenario.h"
#include "util/statecodec.h"

using namespace tspu;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user+sys CPU seconds.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// A "<key>: <n> kB" field of /proc/self/status in MB (VmHWM, VmRSS).
double proc_status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no " + key + " in /proc/self/status");
}

/// Moves the calling thread to the next CPU it may run on, round robin.
/// Host contention on the reference box differs between cores and drifts,
/// and the scheduler leaves a lone busy thread on one core for a whole run,
/// so a single-threaded run took that core's contention whole. Rotating
/// before each campaign call makes the median over calls sample every core.
class CoreRotation {
 public:
  CoreRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }

  /// Best effort: if the kernel refuses, the scheduler stays in charge.
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Thread CPU seconds of the calling thread.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Times a fixed reference task on the cores a campaign call runs on, just
/// before and just after the call, so that time metrics can be stated at a
/// fixed host speed.
///
/// The reference box's speed drifts: other tenants share its cores, caches
/// and memory, and the same code read 2x apart an hour apart (NOTES.md).
/// The task does what the simulator's hot paths do -- an event heap, node
/// lookups in a hash table larger than L2, packet-sized heap blocks and a
/// branchy byte scan over them -- so what slows a call slows the task too.
/// It is the benchmark's own code and does not change with the library.
class HostGauge {
 public:
  /// The nominal host speed, at which one pass takes 5 ms of wall and of
  /// thread-CPU time; time metrics are scaled to it. Readings around
  /// campaign calls on the reference box (4 vCPU Xeon, KVM) ranged from 3.6
  /// to 6.2 ms per pass as its load drifted.
  static constexpr double kNominalWallS = 0.005;
  static constexpr double kNominalCpuS = 0.005;

  struct Reading {
    double wall_s = 0.0;  ///< mean wall seconds of one pass
    double cpu_s = 0.0;   ///< mean thread-CPU seconds of one pass
  };

  explicit HostGauge(int threads)
      : states_(static_cast<std::size_t>(std::max(1, threads))) {
    for (std::size_t t = 0; t < states_.size(); ++t) states_[t].init(t);
  }

  /// Runs kPasses passes after a warm-up pass on every thread at once (on
  /// the calling thread when there is one) and returns the mean pass. The
  /// mean, not the median: a core shared in time slices lets some passes
  /// through whole.
  Reading read() {
    std::vector<Reading> sums(states_.size());
    auto work = [this, &sums](std::size_t t) {
      states_[t].pass();  // refills the caches the measured call evicted
      const double cpu0 = thread_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      for (int k = 0; k < kPasses; ++k) states_[t].pass();
      sums[t] = {seconds_since(t0), thread_cpu_seconds() - cpu0};
    };
    if (states_.size() == 1) {
      work(0);
    } else {
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < states_.size(); ++t) threads.emplace_back(work, t);
      for (std::thread& th : threads) th.join();
    }
    Reading mean;
    const double passes = static_cast<double>(kPasses * sums.size());
    for (const Reading& r : sums) {
      mean.wall_s += r.wall_s / passes;
      mean.cpu_s += r.cpu_s / passes;
    }
    return mean;
  }

  /// Mean of two readings, taken on either side of a measured interval.
  static Reading between(const Reading& a, const Reading& b) {
    return {(a.wall_s + b.wall_s) / 2.0, (a.cpu_s + b.cpu_s) / 2.0};
  }

 private:
  static constexpr int kPasses = 9;
  static constexpr int kSteps = 6000;
  static constexpr std::size_t kKeys = std::size_t{1} << 18;
  static constexpr std::size_t kEvents = 4096;

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// One thread's task state; it carries over from pass to pass.
  struct State {
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> events;
    std::uint64_t x = 0;
    std::uint64_t sink = 0;

    void init(std::size_t t) {
      x = mix(t);
      table.reserve(kKeys);
      for (std::size_t k = 0; k < kKeys; ++k) table.emplace(mix(k), k);
      for (std::size_t e = 0; e < kEvents; ++e) events.push(mix(e + kKeys));
    }

    void pass() {
      for (int i = 0; i < kSteps; ++i) {
        // Next event, and the one it schedules.
        const std::uint64_t now = events.top();
        events.pop();
        x = mix(x ^ now);
        events.push(now + (x & 0xffff));
        // Flow-table lookup by a key that exists, chained on the last one.
        auto it = table.find(mix(x % kKeys));
        it->second += x;
        x ^= it->second;
        // A packet-sized block, filled and scanned.
        std::vector<std::uint8_t> packet(64 + (x & 1023));
        for (std::size_t b = 0; b < packet.size(); b += 8) {
          packet[b] = static_cast<std::uint8_t>(it->second >> (b & 63));
        }
        for (std::size_t b = 0; b < packet.size(); b += 8) {
          sink += packet[b] > 0x7f ? packet[b] : 1;
        }
      }
    }
  };

  std::vector<State> states_;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Wall-clock spans, recorded around the public calls into each layer
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;         ///< index of the enclosing span, -1 for a root
  std::int64_t item;  ///< work item, -1 outside the item loop
};

class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  std::size_t size() const { return spans_.size(); }

  int open(const char* name, int parent, std::int64_t item) {
    spans_.push_back({name, now_ns(), 0, parent, item});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(std::string_view name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    return out;
  }

  double total_s(std::string_view name) const {
    double us = 0.0;
    for (double d : durations_us(name)) us += d;
    return us / 1e6;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (const SpanRecord& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"item\":" << s.item << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<SpanRecord> spans_;
};

/// Opens a span for its lifetime; does nothing when the log is null (the
/// untraced path runs the same code).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, std::int64_t item)
      : log_(log), id_(log != nullptr ? log->open(name, parent, item) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------------

/// How one item's verdict compares with ground truth. Only kMatch counts as
/// correct; kWrong (a confident verdict contradicting the truth, or a throw)
/// is a correctness failure; kInconclusive/kUnreachable are the retry
/// layer's declared non-answers.
enum class Outcome { kMatch, kWrong, kInconclusive, kUnreachable };

struct Tally {
  std::size_t attempted = 0;
  std::size_t matched = 0;
  std::size_t wrong = 0;
  std::size_t inconclusive = 0;
  std::size_t unreachable = 0;

  void add(Outcome o) {
    ++attempted;
    switch (o) {
      case Outcome::kMatch: ++matched; break;
      case Outcome::kWrong: ++wrong; break;
      case Outcome::kInconclusive: ++inconclusive; break;
      case Outcome::kUnreachable: ++unreachable; break;
    }
  }
};

/// One item's result: its record, serialized so records from the campaign
/// and from the traced loop compare byte for byte, and its outcome.
struct ItemOut {
  std::string record;
  Outcome outcome = Outcome::kWrong;
};

Outcome classify_scan(const measure::ScanRecord& rec, bool invert_truth) {
  const bool truth = rec.truth_downstream_visible != invert_truth;
  if (rec.retried) {
    if (rec.verdict == measure::Verdict::kInconclusive) return Outcome::kInconclusive;
    if (rec.verdict == measure::Verdict::kUnreachable) return Outcome::kUnreachable;
    return rec.verdict_tspu == truth ? Outcome::kMatch : Outcome::kWrong;
  }
  return rec.fingerprint.tspu_like() == truth ? Outcome::kMatch : Outcome::kWrong;
}

ItemOut scan_item(const measure::ScanRecord& rec, bool invert_truth) {
  util::StateWriter w;
  measure::encode_scan_record(rec, w);
  return {std::string(w.data()), classify_scan(rec, invert_truth)};
}

/// A targeted domain must be blocked at every vantage point; an untargeted
/// one at none.
ItemOut sweep_item(const topo::DomainInfo& d, const measure::DomainVerdict& v,
                   bool invert_truth) {
  util::StateWriter w;
  w.str(v.domain);
  for (measure::SniOutcome o : v.tspu) w.u8(static_cast<std::uint8_t>(o));
  for (bool b : v.isp_blockpage) w.boolean(b);
  const bool truth = d.tspu.any() != invert_truth;
  const bool ok = truth ? v.tspu_blocked_everywhere() : !v.tspu_blocked_anywhere();
  return {std::string(w.data()), ok ? Outcome::kMatch : Outcome::kWrong};
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Named numbers for the informational output lines.
using Fields = std::vector<std::pair<std::string, double>>;

/// Items are split into seed-chosen chunks; each campaign call covers one
/// chunk, so every call samples the whole world, and a run makes enough
/// calls for a median.
constexpr std::size_t kChunks = 8;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int default_jobs() const = 0;
  /// Number of chunks the items are split into.
  virtual std::size_t chunks() const = 0;
  /// World replicas built (and timed) for setup_s.
  virtual int setup_builds() const = 0;
  virtual const char* ctor_span() const = 0;
  /// Span name of the measure call each item makes.
  virtual const char* probe_span() const = 0;

  /// Builds the loop world through its public constructor, dropping the
  /// previous one first so that two worlds never coexist.
  virtual void build_world() = 0;
  virtual void drop_world() = 0;
  /// Stated input size, read from the config and the built world.
  virtual Fields sizes() const = 0;
  virtual std::size_t devices_per_trial() const = 0;

  /// One campaign call over chunk `c`.
  virtual std::vector<ItemOut> campaign(std::size_t c, int jobs) = 0;
  /// Selects the same items on the loop world; returns their count.
  virtual std::size_t prepare_loop(std::size_t c) = 0;
  /// Runs loop item i (begin_trial + probe), with spans under `parent` when
  /// `log` is non-null.
  virtual ItemOut run_item(std::size_t i, SpanLog* log, int parent) = 0;
};

class ScanWorkload : public Workload {
 public:
  struct Params {
    topo::NationalConfig topo;
    measure::ParallelScanConfig scan;
    std::uint64_t chunk_seed = 0;
    std::size_t chunks = kChunks;
    int jobs = 1;
    int setup_builds = 1;
    bool invert_truth = false;
  };

  explicit ScanWorkload(Params p) : p_(std::move(p)) {}

  int default_jobs() const override { return p_.jobs; }
  std::size_t chunks() const override { return p_.chunks; }
  int setup_builds() const override { return p_.setup_builds; }
  const char* ctor_span() const override { return "topo.NationalTopology"; }
  const char* probe_span() const override {
    return p_.scan.retry ? "measure.probe_fragment_limit_retry"
                         : "measure.probe_fragment_limit";
  }

  void build_world() override {
    world_.reset();
    world_ = std::make_unique<topo::NationalTopology>(p_.topo);
  }
  void drop_world() override { world_.reset(); }

  Fields sizes() const override {
    return {{"items", static_cast<double>(world_->endpoints().size())},
            {"world_endpoints", static_cast<double>(world_->endpoints().size())},
            {"devices", static_cast<double>(world_->devices().size())},
            {"ases", static_cast<double>(world_->ases().size())},
            {"n_ases_config", static_cast<double>(p_.topo.n_ases)},
            {"endpoint_scale", p_.topo.endpoint_scale}};
  }
  std::size_t devices_per_trial() const override { return world_->devices().size(); }

  std::vector<ItemOut> campaign(std::size_t c, int jobs) override {
    measure::ParallelScanConfig cfg = p_.scan;
    cfg.filter = [this, c](const topo::Endpoint& ep) { return chunk_of(ep) == c; };
    const measure::ParallelScanOutcome out = measure::parallel_scan(p_.topo, cfg, jobs);
    std::vector<ItemOut> items;
    items.reserve(out.records.size());
    for (const measure::ScanRecord& rec : out.records) {
      items.push_back(scan_item(rec, p_.invert_truth));
    }
    return items;
  }

  std::size_t prepare_loop(std::size_t c) override {
    selected_.clear();
    const std::vector<topo::Endpoint>& eps = world_->endpoints();
    for (std::size_t i = 0; i < eps.size(); ++i) {
      if (chunk_of(eps[i]) == c) selected_.push_back(i);
    }
    return selected_.size();
  }

  // The fingerprint-only body of parallel_scan's per-endpoint probe, with
  // the same per-item seed, so its records must match the campaign's.
  ItemOut run_item(std::size_t i, SpanLog* log, int parent) override {
    topo::NationalTopology& w = *world_;
    const auto item = static_cast<std::int64_t>(i);
    {
      ScopedSpan span(log, "topo.begin_trial", parent, item);
      w.begin_trial(runner::item_seed(p_.scan.seed, i));
    }
    measure::reset_fresh_port();
    const topo::Endpoint& ep = w.endpoints()[selected_[i]];
    measure::ScanRecord rec;
    rec.endpoint_index = selected_[i];
    rec.addr = ep.addr;
    rec.port = ep.port;
    rec.as_index = ep.as_index;
    rec.device_label = ep.device_label;
    rec.echo_server = ep.echo_server;
    rec.truth_downstream_visible = ep.tspu_downstream_visible;
    rec.truth_upstream_visible = ep.tspu_upstream_visible;
    rec.truth_hops = ep.tspu_hops_from_endpoint;
    rec.fingerprinted = true;
    if (p_.scan.retry) {
      ScopedSpan span(log, probe_span(), parent, item);
      const measure::FragFingerprintVerdict fv = measure::probe_fragment_limit_retry(
          w.net(), w.prober(), ep.addr, ep.port, p_.scan.retry_policy);
      rec.fingerprint = fv.as_result();
      rec.retried = true;
      rec.verdict = fv.verdict;
      rec.verdict_tspu = fv.tspu_like;
      rec.attempts = fv.attempts;
    } else {
      ScopedSpan span(log, probe_span(), parent, item);
      rec.fingerprint =
          measure::probe_fragment_limit(w.net(), w.prober(), ep.addr, ep.port);
    }
    return scan_item(rec, p_.invert_truth);
  }

 private:
  /// Seed-chosen chunk of an endpoint, keyed by its address and port.
  std::size_t chunk_of(const topo::Endpoint& ep) const {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(ep.addr.value()) << 16) | ep.port;
    return static_cast<std::size_t>(runner::item_seed(p_.chunk_seed, key) % p_.chunks);
  }

  Params p_;
  std::unique_ptr<topo::NationalTopology> world_;
  std::vector<std::size_t> selected_;
};

class SweepWorkload : public Workload {
 public:
  struct Params {
    topo::ScenarioConfig scenario;
    measure::DomainTestConfig test;
    std::uint64_t item_seed = 0;
    std::uint64_t chunk_seed = 0;
    int jobs = 1;
    int setup_builds = 1;
    bool invert_truth = false;
  };

  explicit SweepWorkload(Params p) : p_(std::move(p)) {
    const topo::DomainCorpus corpus = topo::DomainCorpus::generate(p_.scenario.corpus);
    n_domains_ = corpus.tranco_list().size() + corpus.registry_sample().size();
  }

  int default_jobs() const override { return p_.jobs; }
  std::size_t chunks() const override { return kChunks; }
  int setup_builds() const override { return p_.setup_builds; }
  const char* ctor_span() const override { return "topo.Scenario"; }
  const char* probe_span() const override { return "measure.test_domain"; }

  void build_world() override {
    world_.reset();
    world_ = std::make_unique<Replica>(p_.scenario);
  }
  void drop_world() override { world_.reset(); }

  Fields sizes() const override {
    const topo::DomainCorpus& corpus = world_->scenario->corpus();
    return {{"items", static_cast<double>(world_->domains.size())},
            {"tranco_domains", static_cast<double>(corpus.tranco_list().size())},
            {"registry_domains", static_cast<double>(corpus.registry_sample().size())},
            {"vantage_points",
             static_cast<double>(world_->scenario->vantage_points().size())},
            {"devices", static_cast<double>(world_->scenario->devices().size())},
            {"corpus_scale", p_.scenario.corpus.scale}};
  }
  std::size_t devices_per_trial() const override {
    return world_->scenario->devices().size();
  }

  // Driven the way fig6_coverage drives the sweep: shard_map, then
  // begin_trial, then test_domain, on one Scenario + DomainTester per shard.
  std::vector<ItemOut> campaign(std::size_t c, int jobs) override {
    const std::vector<std::size_t> items = chunk_items(c);
    return runner::shard_map(
        items.size(), jobs,
        [this](int) { return std::make_unique<Replica>(p_.scenario); },
        [this, &items](std::unique_ptr<Replica>& r, std::size_t i) {
          return run_on(*r, items[i], i, nullptr, -1);
        });
  }

  std::size_t prepare_loop(std::size_t c) override {
    selected_ = chunk_items(c);
    return selected_.size();
  }

  ItemOut run_item(std::size_t i, SpanLog* log, int parent) override {
    return run_on(*world_, selected_[i], i, log, parent);
  }

 private:
  struct Replica {
    explicit Replica(const topo::ScenarioConfig& cfg)
        : scenario(std::make_unique<topo::Scenario>(cfg)),
          tester(std::make_unique<measure::DomainTester>(*scenario)),
          domains(scenario->corpus().tranco_list()) {
      const std::vector<const topo::DomainInfo*> registry =
          scenario->corpus().registry_sample();
      domains.insert(domains.end(), registry.begin(), registry.end());
    }
    std::unique_ptr<topo::Scenario> scenario;
    std::unique_ptr<measure::DomainTester> tester;
    std::vector<const topo::DomainInfo*> domains;  ///< Tranco, then registry
  };

  /// Domain indices of chunk `c` in corpus order.
  std::vector<std::size_t> chunk_items(std::size_t c) const {
    std::vector<std::size_t> out;
    for (std::size_t d = 0; d < n_domains_; ++d) {
      if (runner::item_seed(p_.chunk_seed, d) % kChunks == c) out.push_back(d);
    }
    return out;
  }

  ItemOut run_on(Replica& r, std::size_t domain, std::size_t i, SpanLog* log,
                 int parent) const {
    const auto item = static_cast<std::int64_t>(i);
    {
      ScopedSpan span(log, "topo.begin_trial", parent, item);
      r.scenario->begin_trial(runner::item_seed(p_.item_seed, i));
    }
    measure::reset_fresh_port();
    const topo::DomainInfo& d = *r.domains[domain];
    measure::DomainVerdict v;
    {
      ScopedSpan span(log, probe_span(), parent, item);
      v = r.tester->test_domain(d, p_.test);
    }
    return sweep_item(d, v, p_.invert_truth);
  }

  Params p_;
  std::unique_ptr<Replica> world_;
  std::size_t n_domains_ = 0;
  std::vector<std::size_t> selected_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 0;  ///< 0 = the workload's own job count
  bool tiny = false;
  bool invert_truth = false;
  std::string spans_out;
};

/// The three workloads. The worlds (topology, corpus) are the library's
/// default builds, so every seed measures the same system; --seed picks the
/// items of each campaign call and their per-item seeds, which drive the
/// devices' and links' stochastic streams.
std::unique_ptr<Workload> make_workload(const Options& o) {
  auto fork = [&o](std::uint64_t stream) { return runner::item_seed(o.seed, stream); };
  if (o.workload == "national_scan" || o.workload == "faulted_scan") {
    const bool faulted = o.workload == "faulted_scan";
    ScanWorkload::Params p;
    p.scan.seed = fork(1);
    p.chunk_seed = fork(2);
    p.scan.fingerprint = true;
    p.scan.localize = false;
    p.invert_truth = o.invert_truth;
    if (!faulted) {
      p.topo.n_ases = o.tiny ? 60 : 4986;
      p.topo.endpoint_scale = o.tiny ? 0.0005 : 0.05;
      p.jobs = std::min(4, runner::hardware_jobs());
      p.setup_builds = 7;
    } else {
      p.topo.n_ases = o.tiny ? 60 : 400;
      p.topo.endpoint_scale = o.tiny ? 0.0005 : 0.004;
      // The fault plan of GracefulDegradation.FaultedScanConfirmsCleanPositives.
      p.topo.link_faults.burst = netsim::GilbertElliott::bursty(0.02, 8.0);
      p.topo.link_faults.burst.relax_steps_per_second = 1000.0;
      p.topo.device_faults.flap_mode = netsim::DeviceFailMode::kFailClosed;
      p.topo.device_faults.flaps = {
          {util::Duration::millis(2), util::Duration::millis(30)}};
      p.topo.device_faults.reboot_on_recovery = false;
      p.scan.retry = true;
      // Calls of ~0.5 s rather than ~1.5 s: the host gauge, read around
      // each call, follows the host's drift more closely.
      p.chunks = 3 * kChunks;
      p.jobs = 1;
      p.setup_builds = 25;
    }
    return std::make_unique<ScanWorkload>(std::move(p));
  }
  if (o.workload == "sni_sweep") {
    SweepWorkload::Params p;
    p.scenario.perfect_devices = true;
    p.scenario.corpus.scale = o.tiny ? 0.02 : 1.0;
    p.test.depth = measure::ClassifyDepth::kStandard;
    p.item_seed = fork(1);
    p.chunk_seed = fork(2);
    p.jobs = 1;
    p.setup_builds = 15;
    p.invert_truth = o.invert_truth;
    return std::make_unique<SweepWorkload>(std::move(p));
  }
  throw std::invalid_argument("unknown workload '" + o.workload +
                              "' (national_scan, sni_sweep, faulted_scan)");
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Metric values keep every digit; informational lines need fewer.
std::string num(double v, int digits = 17) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_line(const std::string& key, const Fields& fields) {
  std::string s = "{\"" + key + "\": {";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    s += (i ? ", \"" : "\"") + fields[i].first + "\": " + num(fields[i].second, 12);
  }
  std::printf("%s}}\n", s.c_str());
}

void print_provenance(const Options& o, int jobs, const Fields& sizes) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"nproc\": %d, \"jobs\": %d, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"tiny\": %s}}\n",
      o.workload.c_str(), TSPU_PERFBENCH_BUILD_TYPE, TSPU_PERFBENCH_COMPILER,
      runner::hardware_jobs(), jobs, static_cast<unsigned long long>(o.seed),
      num(o.seconds).c_str(), o.trace ? 1 : 0, o.tiny ? "true" : "false");
  print_line("input_size", sizes);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", s.c_str());
  std::fflush(stdout);
}

Fields tally_fields(const Tally& t) {
  return {{"attempted", static_cast<double>(t.attempted)},
          {"matched", static_cast<double>(t.matched)},
          {"wrong", static_cast<double>(t.wrong)},
          {"inconclusive", static_cast<double>(t.inconclusive)},
          {"unreachable", static_cast<double>(t.unreachable)}};
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

int run_untraced(Workload& w, const Options& o, int jobs) {
  obs::Recorder recorder(obs::TraceConfig{});
  obs::RecorderScope scope(recorder);

  // The gauges' tables stay resident for the whole run; their size is
  // taken out of peak_rss_mb.
  const double rss_before_gauges = proc_status_mb("VmRSS");
  HostGauge setup_gauge(1);
  HostGauge gauge(jobs);
  const double gauge_mb = proc_status_mb("VmRSS") - rss_before_gauges;

  // setup_s: one world replica through its public constructor, built
  // several times outside the campaign, each at nominal host speed; the
  // median is reported.
  std::vector<double> setup, setup_raw;
  Fields sizes;
  for (int k = 0; k < w.setup_builds(); ++k) {
    const HostGauge::Reading before = setup_gauge.read();
    const Clock::time_point t0 = Clock::now();
    w.build_world();
    setup_raw.push_back(seconds_since(t0));
    const HostGauge::Reading host = HostGauge::between(before, setup_gauge.read());
    setup.push_back(setup_raw.back() * HostGauge::kNominalWallS / host.wall_s);
    if (k == 0) sizes = w.sizes();
    w.drop_world();
  }
  print_provenance(o, jobs, sizes);

  // Campaign calls over successive chunks until the time is spent, each
  // between two gauge readings on the same cores. The first call's tally
  // depends only on the seed, so it repeats exactly from run to run; the
  // totals depend on how many calls fit.
  Tally total, first;
  std::vector<double> rate, cpu_us, rate_raw, cpu_us_raw, pass_s;
  CoreRotation rotation;
  const Clock::time_point start = Clock::now();
  std::size_t calls = 0;
  do {
    if (jobs == 1) rotation.next();
    const HostGauge::Reading before = gauge.read();
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const std::vector<ItemOut> items = w.campaign(calls % w.chunks(), jobs);
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    const HostGauge::Reading host = HostGauge::between(before, gauge.read());
    for (const ItemOut& it : items) {
      total.add(it.outcome);
      if (calls == 0) first.add(it.outcome);
    }
    const auto n = static_cast<double>(items.size());
    rate_raw.push_back(ratio(n, wall));
    cpu_us_raw.push_back(ratio(cpu * 1e6, n));
    rate.push_back(rate_raw.back() * host.wall_s / HostGauge::kNominalWallS);
    cpu_us.push_back(cpu_us_raw.back() * HostGauge::kNominalCpuS / host.cpu_s);
    pass_s.push_back(host.wall_s);
    ++calls;
  } while (seconds_since(start) < o.seconds);

  Fields detail = tally_fields(total);
  detail.emplace_back("campaign_calls", static_cast<double>(calls));
  detail.emplace_back("first_call_items", static_cast<double>(first.attempted));
  detail.emplace_back("first_call_unconfirmed",
                      static_cast<double>(first.inconclusive + first.unreachable));
  detail.emplace_back("measured_s", seconds_since(start));
  detail.emplace_back("items_per_s_norm_min", *std::min_element(rate.begin(), rate.end()));
  detail.emplace_back("items_per_s_norm_max", *std::max_element(rate.begin(), rate.end()));
  detail.emplace_back("setup_s_min", *std::min_element(setup.begin(), setup.end()));
  detail.emplace_back("setup_s_max", *std::max_element(setup.begin(), setup.end()));
  // The same medians as measured, before scaling to nominal host speed.
  detail.emplace_back("items_per_s_wall", median(rate_raw));
  detail.emplace_back("cpu_us_per_item_wall", median(cpu_us_raw));
  detail.emplace_back("setup_s_wall", median(setup_raw));
  detail.emplace_back("gauge_pass_s", median(pass_s));
  detail.emplace_back("gauge_mb", gauge_mb);
  print_line("detail", detail);

  const std::vector<Metric> metrics = {
      {"items_per_s_norm", median(rate), "items/s"},
      {"cpu_us_per_item_norm", median(cpu_us), "us"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", proc_status_mb("VmHWM") - gauge_mb, "MB"},
      {"accuracy", ratio(static_cast<double>(total.matched),
                         static_cast<double>(total.attempted)),
       "ratio"},
  };
  print_result(total.wrong == 0, total.attempted, total.wrong, metrics);
  return total.wrong == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

int run_traced(Workload& w, const Options& o, int jobs) {
  SpanLog log;
  // Counters of the traced loop only: the reference campaigns record into
  // their own recorders.
  obs::Recorder loop_recorder(obs::TraceConfig{});
  Tally tally;
  std::size_t items = 0, mismatches = 0, calls = 0;
  double untraced_s = 0.0, campaign_wall = 0.0, campaign_cpu = 0.0;
  double rss_before = 0.0, campaign_peak = 0.0;
  int replicas = 0;
  const Clock::time_point start = Clock::now();
  do {
    const std::size_t chunk = calls % w.chunks();
    // Reference: the campaign call itself, untraced, at the workload's job
    // count. Its records are what the traced loop must reproduce, and its
    // memory and CPU give the runner metrics.
    if (calls == 0) {
      malloc_trim(0);
      rss_before = proc_status_mb("VmRSS");
    }
    std::vector<ItemOut> ref;
    {
      obs::Recorder recorder(obs::TraceConfig{});
      obs::RecorderScope scope(recorder);
      const double cpu0 = cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      ref = w.campaign(chunk, jobs);
      campaign_wall += seconds_since(t0);
      campaign_cpu += cpu_seconds() - cpu0;
    }
    if (calls == 0) {
      campaign_peak = proc_status_mb("VmHWM");
      replicas = static_cast<int>(
          std::min<std::size_t>(static_cast<std::size_t>(jobs), ref.size()));
      {
        ScopedSpan span(&log, w.ctor_span(), -1, -1);
        w.build_world();
      }
      print_provenance(o, jobs, w.sizes());
    }
    const std::size_t n = w.prepare_loop(chunk);
    if (n != ref.size()) {
      throw std::runtime_error("traced loop selected " + std::to_string(n) +
                               " items, the campaign " + std::to_string(ref.size()));
    }

    // Each item runs twice on the loop world, once traced and once
    // untraced, alternating which goes first; begin_trial makes both runs
    // identical, so counters are halved and the untraced time bounds the
    // span overhead.
    obs::RecorderScope scope(loop_recorder);
    log.reserve(log.size() + 4 * n);
    for (std::size_t i = 0; i < n; ++i) {
      obs::begin_item(i);
      const auto id = static_cast<std::int64_t>(items + i);
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = (pass == 0) == (id % 2 == 0);
        ItemOut out;
        const Clock::time_point t0 = Clock::now();
        const int item = traced ? log.open("item", -1, id) : -1;
        try {
          out = w.run_item(i, traced ? &log : nullptr, item);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "item %lld threw: %s\n", static_cast<long long>(id),
                       e.what());
        }
        if (traced) {
          log.close(item);
          tally.add(out.outcome);
        } else {
          untraced_s += seconds_since(t0);
        }
        if (out.record != ref[i].record) ++mismatches;
      }
    }
    items += n;
    ++calls;
  } while (seconds_since(start) < o.seconds);
  if (!o.spans_out.empty()) log.write_jsonl(o.spans_out);

  const obs::MetricsRegistry& m = loop_recorder.metrics;
  // Every item ran twice under the loop recorder.
  const double runs = 2.0 * static_cast<double>(items);
  auto counter_sum = [&m](std::initializer_list<std::string_view> names) {
    double s = 0.0;
    for (std::string_view c : names) s += static_cast<double>(m.counter_value(c));
    return s;
  };
  auto per_item = [&](std::string_view c) { return ratio(counter_sum({c}), runs); };
  const char* probe = w.probe_span();
  const double loop_s = log.total_s("item");
  const double probe_s = log.total_s(probe);
  const double delivered = counter_sum({"netsim.delivered"});
  const double drops = counter_sum({"netsim.drop.burst", "netsim.drop.iid",
                                    "netsim.drop.link_down", "netsim.drop.loss"});
  const double frag_released = counter_sum({"tspu.frag.released"});
  const double frag_discards =
      counter_sum({"tspu.frag.discard.limit", "tspu.frag.discard.overlap",
                   "tspu.frag.discard.overlong", "tspu.frag.discard.timeout"});
  const std::vector<double> trial_us = log.durations_us("topo.begin_trial");
  const std::vector<double> probe_us = log.durations_us(probe);

  Fields detail = tally_fields(tally);
  detail.emplace_back("mismatches", static_cast<double>(mismatches));
  detail.emplace_back("campaign_calls", static_cast<double>(calls));
  detail.emplace_back("campaign_wall_s", campaign_wall);
  detail.emplace_back("traced_loop_s", loop_s);
  detail.emplace_back("untraced_loop_s", untraced_s);
  print_line("detail", detail);

  const std::vector<Metric> metrics = {
      {"topo.begin_trial_us_p50", quantile(trial_us, 0.50), "us"},
      {"topo.begin_trial_us_p99", quantile(trial_us, 0.99), "us"},
      {"topo.begin_trial_share", ratio(log.total_s("topo.begin_trial"), loop_s), "ratio"},
      {"topo.devices_per_trial", static_cast<double>(w.devices_per_trial()), "count"},
      {"measure.probe_us_p50", quantile(probe_us, 0.50), "us"},
      {"measure.probe_us_p99", quantile(probe_us, 0.99), "us"},
      {"measure.probe_share", ratio(probe_s, loop_s), "ratio"},
      {"measure.attempts_per_item", per_item("measure.attempts"), "count"},
      {"measure.inconclusive_share",
       ratio(static_cast<double>(tally.inconclusive), static_cast<double>(items)),
       "ratio"},
      {"netsim.delivered_per_item", per_item("netsim.delivered"), "count"},
      {"netsim.sim_events_per_item", per_item("netsim.sim_events"), "count"},
      {"netsim.ns_per_delivery", ratio(probe_s * 1e9, delivered / 2.0), "ns"},
      {"netsim.drop_share", ratio(drops, counter_sum({"netsim.transmitted"})), "ratio"},
      {"tspu.device_share", ratio(counter_sum({"tspu.device.packets"}), delivered),
       "ratio"},
      {"tspu.device_packets_per_item", per_item("tspu.device.packets"), "count"},
      {"tspu.frag.buffered_per_item", per_item("tspu.frag.buffered"), "count"},
      {"tspu.frag.useful_ratio",
       ratio(frag_released, frag_released + frag_discards), "ratio"},
      {"tspu.conntrack.created_per_item", per_item("tspu.conntrack.created"), "count"},
      {"tspu.rst_rewrite_per_item", per_item("tspu.device.rst_rewrite"), "count"},
      {"runner.replicas", static_cast<double>(replicas), "count"},
      {"runner.rss_mb_per_replica",
       ratio(campaign_peak - rss_before, static_cast<double>(replicas)), "MB"},
      {"runner.cpu_utilization",
       ratio(campaign_cpu, campaign_wall * static_cast<double>(replicas)), "ratio"},
      {"trace.overhead_ratio", ratio(untraced_s, loop_s), "ratio"},
  };
  const bool correct = mismatches == 0 && tally.wrong == 0;
  print_result(correct, items, tally.wrong, metrics);
  return correct ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = std::stoi(value()) != 0;
    } else if (a == "--jobs") {
      o.jobs = std::stoi(value());
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--invert-truth") {
      o.invert_truth = true;
    } else if (a == "--spans-out") {
      o.spans_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const std::unique_ptr<Workload> w = make_workload(o);
    const int jobs = o.jobs > 0 ? o.jobs : w->default_jobs();
    return o.trace ? run_traced(*w, o, jobs) : run_untraced(*w, o, jobs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tspu_perfbench: %s\n", e.what());
    return 2;
  }
}
