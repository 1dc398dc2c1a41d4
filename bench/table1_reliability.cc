// Table 1: percentage of TSPU failures per vantage point and trigger type.
// Trials default to 2,000 per cell (the paper used 20,000); set
// TSPU_BENCH_TRIALS=20000 for the full run. Trials are sharded across
// worker threads (one Scenario replica each); every cell is identical for
// any TSPU_BENCH_JOBS value.
//
// The second half is the fault matrix: the same SNI-I measurement repeated
// under injected network faults (clean / 2% i.i.d. loss / Gilbert-Elliott
// bursts / a fail-open device flap), once raw and once through the
// retry/confidence layer, reporting false-block and false-allow rates.
#include <array>

#include "bench_common.h"
#include "measure/behavior.h"
#include "measure/common.h"
#include "measure/reliability.h"
#include "measure/retry.h"
#include "netsim/faults.h"
#include "runner/runner.h"
#include "topo/scenario.h"
#include "util/strings.h"
#include "util/table.h"

using namespace tspu;

namespace {

// One fault-matrix item: the raw single-shot answer plus the retry-layer
// verdict for the same trial world.
struct FaultCell {
  bool raw_wrong = false;
  bool retry_wrong = false;   // confirmed AND wrong (the bad outcome)
  bool inconclusive = false;  // retry layer refused to commit
};

// Raw + retried SNI measurement of `domain` from the ER-Telecom vantage
// point. `expect_blocked` selects the error direction being measured:
// trigger trials count false allows, benign trials false blocks. The raw
// probe treats a dead connection as "blocked" — exactly the misreading the
// retry layer exists to catch.
FaultCell fault_cell(topo::Scenario& scenario, const std::string& domain,
                     bool expect_blocked) {
  auto& net = scenario.net();
  netsim::Host& client = *scenario.vp("ER-Telecom").host;
  const util::Ipv4Addr server = scenario.us_machine(0).addr();

  const measure::SniOutcome raw =
      measure::test_sni(net, client, server, domain,
                        measure::ClassifyDepth::kQuick)
          .outcome;

  measure::RetryPolicy policy;
  policy.positive_conclusive = false;  // blocked is forgeable both ways
  const measure::ProbeVerdict pv = measure::run_with_retry(
      net, policy, [&]() -> std::optional<bool> {
        const measure::SniOutcome o =
            measure::test_sni(net, client, server, domain,
                              measure::ClassifyDepth::kQuick)
                .outcome;
        if (o == measure::SniOutcome::kNoConnection) return std::nullopt;
        return o != measure::SniOutcome::kOk;
      });

  // A raw single-shot prober cannot tell a dead connection from a block, so
  // its reading is simply "anything but a clean OK means blocked".
  FaultCell cell;
  const bool raw_blocked = raw != measure::SniOutcome::kOk;
  cell.raw_wrong = raw_blocked != expect_blocked;
  if (pv.verdict == measure::Verdict::kConfirmed) {
    cell.retry_wrong = pv.observation != expect_blocked;
  } else {
    cell.inconclusive = true;
  }
  return cell;
}

}  // namespace

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("table1_reliability");
  const int trials = bench::env_int("TSPU_BENCH_TRIALS", 2000);
  bench::banner("Table 1", "Percentage of TSPU failures (" +
                               std::to_string(trials) + " trials per cell)");

  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.02;

  // Paper's Table 1 for side-by-side comparison.
  const char* paper[3][5] = {
      {"0.084%", "0.0025%", "0.27%", "0.02%", "0.00%"},
      {"N/A", "1.76%", "2.19%", "0.93%", "0.045%"},
      {"0.14%", "0.005%", "0.04%", "0.00%", "0.02%"},
  };
  const char* isps[3] = {"Rostelecom", "ER-Telecom", "OBIT"};
  const measure::TriggerKind kinds[5] = {
      measure::TriggerKind::kSniI, measure::TriggerKind::kSniII,
      measure::TriggerKind::kSniIV, measure::TriggerKind::kQuic,
      measure::TriggerKind::kIpBased};
  constexpr std::uint64_t kSeed = 0x7ab1e1;

  // Flat item space: ((isp * 5) + kind) * trials + trial.
  const std::size_t n_items = std::size_t(3) * 5 * std::max(trials, 0);
  const measure::ReliabilityConfig rc;
  const std::vector<bool> unblocked = runner::shard_map(
      n_items, report.jobs(),
      [&cfg](int) { return std::make_unique<topo::Scenario>(cfg); },
      [&](std::unique_ptr<topo::Scenario>& scenario, std::size_t i) {
        scenario->begin_trial(runner::item_seed(kSeed, i));
        measure::reset_fresh_port();
        const std::size_t cell = i / trials;
        auto& vp = scenario->vp(isps[cell / 5]);
        return measure::reliability_trial(*scenario, vp, kinds[cell % 5], rc);
      });

  std::array<std::array<int, 5>, 3> failures{};
  for (std::size_t i = 0; i < unblocked.size(); ++i) {
    if (unblocked[i]) ++failures[i / trials / 5][i / trials % 5];
  }

  util::Table table({"ISP", "SNI-I", "SNI-II", "SNI-IV", "QUIC", "IP-Based",
                     "(paper row)"});
  double total_failure_rate = 0;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> row = {isps[i]};
    for (int j = 0; j < 5; ++j) {
      const double rate =
          trials == 0 ? 0.0 : static_cast<double>(failures[i][j]) / trials;
      total_failure_rate += rate;
      row.push_back(util::format_pct(rate, 3));
    }
    std::string paper_row;
    for (int j = 0; j < 5; ++j) {
      paper_row += paper[i][j];
      if (j < 4) paper_row += " / ";
    }
    row.push_back(paper_row);
    table.row(row);
  }
  std::printf("%s", table.render().c_str());
  bench::note("Rostelecom/OBIT paths cross 2 TSPU devices: both must fail "
              "for a trial to slip through, hence the far lower rates than "
              "single-device ER-Telecom.");

  // ------------------------------------------------------------------------
  // Fault matrix: SNI-I measurement error rates under injected faults,
  // raw single-shot vs the retry/confidence layer. Trigger trials
  // (facebook.com, expect blocked) measure false allows; benign trials
  // (example.com, expect pass) measure false blocks.
  // ------------------------------------------------------------------------
  const int fault_trials = std::max(1, trials / 10);
  bench::banner("Fault matrix",
                "SNI-I error rates under injected faults (" +
                    std::to_string(fault_trials) + " trials per cell)");

  struct FaultMode {
    const char* name;
    netsim::LinkFaultPlan links;
    netsim::DeviceFaultPlan devices;
  };
  std::array<FaultMode, 4> modes;
  modes[0].name = "clean";
  modes[1].name = "iid-2%";
  modes[1].links.iid_loss = 0.02;
  modes[2].name = "ge-burst";
  modes[2].links.burst = netsim::GilbertElliott::bursty(0.02, 8.0);
  // Time-clocked bursts (see netsim/faults.h): retry backoffs decorrelate
  // attempts and a back-to-back train sees one outage state, matching how
  // the scan campaign configures this fault.
  modes[2].links.burst.relax_steps_per_second = 1000.0;
  modes[3].name = "dev-flap";
  modes[3].devices.flap_mode = netsim::DeviceFailMode::kFailOpen;
  modes[3].devices.flaps = {{util::Duration::millis(5),
                             util::Duration::millis(45)}};

  util::Table fault_table({"fault mode", "false-block raw", "retried",
                           "false-allow raw", "retried", "inconclusive"});
  for (std::size_t m = 0; m < modes.size(); ++m) {
    topo::ScenarioConfig fcfg = cfg;
    fcfg.link_faults = modes[m].links;
    fcfg.device_faults = modes[m].devices;

    // Items 0..N-1 are trigger trials, N..2N-1 benign trials; one
    // begin_trial world each, so every cell is jobs-invariant.
    const std::size_t n = static_cast<std::size_t>(fault_trials);
    const std::uint64_t mode_seed = 0xfa57u + 0x1000u * m;
    const std::vector<FaultCell> cells = runner::shard_map(
        2 * n, report.jobs(),
        [&fcfg](int) { return std::make_unique<topo::Scenario>(fcfg); },
        [&](std::unique_ptr<topo::Scenario>& scenario, std::size_t i) {
          scenario->begin_trial(runner::item_seed(mode_seed, i));
          measure::reset_fresh_port();
          const bool trigger = i < n;
          return fault_cell(*scenario, trigger ? "facebook.com" : "example.com",
                            /*expect_blocked=*/trigger);
        });

    int raw_allow = 0, retry_allow = 0, raw_block = 0, retry_block = 0,
        inconclusive = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const bool trigger = i < n;
      raw_allow += trigger && cells[i].raw_wrong;
      retry_allow += trigger && cells[i].retry_wrong;
      raw_block += !trigger && cells[i].raw_wrong;
      retry_block += !trigger && cells[i].retry_wrong;
      inconclusive += cells[i].inconclusive;
    }
    const double dn = static_cast<double>(fault_trials);
    fault_table.row({modes[m].name, util::format_pct(raw_block / dn, 2),
                     util::format_pct(retry_block / dn, 2),
                     util::format_pct(raw_allow / dn, 2),
                     util::format_pct(retry_allow / dn, 2),
                     util::format_pct(inconclusive / (2 * dn), 2)});

    const std::string key = modes[m].name;
    report.metric(key + ".false_block_raw", raw_block / dn);
    report.metric(key + ".false_block_retry", retry_block / dn);
    report.metric(key + ".false_allow_raw", raw_allow / dn);
    report.metric(key + ".false_allow_retry", retry_allow / dn);
    report.metric(key + ".inconclusive_share", inconclusive / (2 * dn));
  }
  std::printf("%s", fault_table.render().c_str());
  bench::note("\"retried\" columns count CONFIRMED-but-wrong verdicts only; "
              "trials the retry layer refuses to call land in the "
              "inconclusive column instead of becoming errors.");

  report.metric("trials_per_cell", trials);
  report.metric("fault_trials_per_cell", fault_trials);
  report.metric("mean_failure_rate", total_failure_rate / 15.0);
  report.write();
  return 0;
}
