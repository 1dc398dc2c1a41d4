// Fixture: shard-escape positive — this TU is reachable only from the
// checkpointed_map call in measure/ckptdrive.cc via beta/tally.h.
#include "beta/tally.h"

namespace tspu::beta {

static int g_tally = 0;

int tally(int by) {
  g_tally += by;
  return g_tally;
}

}  // namespace tspu::beta
