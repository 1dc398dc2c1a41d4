// Fixture: declarations for the checkpointed_map shard-escape chain (see
// tally.cc).
#pragma once

namespace tspu::beta {

int tally(int by);

}  // namespace tspu::beta
