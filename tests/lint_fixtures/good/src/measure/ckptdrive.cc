// Fixture: a checkpointed_map call site that reaches beta/tally.cc AND
// wires its per-item reset into the trial-isolation path — with named,
// non-global captures. Everything here must lint clean.
#include "beta/tally.h"

namespace tspu::measure {

int drive_checkpointed(const ScenarioConfig& config, int jobs,
                       const runner::CheckpointOptions& opts) {
  auto rows = runner::checkpointed_map(
      4, jobs, [&config](int) { return Scenario(config); },
      [](Scenario& scenario, std::size_t i) {
        scenario.begin_trial(i);
        beta::reset_beta_tally();
        return beta::tally(static_cast<int>(i));
      },
      ScenarioCodec{}, opts);
  return static_cast<int>(rows.size());
}

}  // namespace tspu::measure
