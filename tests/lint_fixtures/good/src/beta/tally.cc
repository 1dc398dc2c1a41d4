// Fixture: shard-escape negative — state reachable from a checkpointed_map
// call site, handled right: thread_local, with a reset function wired into
// the begin_trial path by measure/ckptdrive.cc.
#include "beta/tally.h"

namespace tspu::beta {
namespace {

thread_local int t_tally = 0;

}  // namespace

int tally(int by) {
  t_tally += by;
  return t_tally;
}

void reset_beta_tally() { t_tally = 0; }

}  // namespace tspu::beta
