// Fixture: a checkpointed_map call site (and no other worker entry) whose
// include closure reaches beta/tally.cc, making its static state a
// shard-escape finding there.
#include "beta/tally.h"

namespace tspu::measure {

int drive_checkpointed(int jobs, const runner::CheckpointOptions& opts) {
  auto rows = runner::checkpointed_map(
      4, jobs, [](int shard) { return shard; },
      [](int&, std::size_t i) { return beta::tally(static_cast<int>(i)); },
      IntCodec{}, opts);
  return static_cast<int>(rows.size());
}

}  // namespace tspu::measure
