// Fixture: declarations for the checkpointed_map shard-escape negative
// chain (see tally.cc).
#pragma once

namespace tspu::beta {

int tally(int by);
void reset_beta_tally();

}  // namespace tspu::beta
