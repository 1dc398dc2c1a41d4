// Shard-state serialization shared by the checkpointed campaigns
// (measure::parallel_scan, measure::sharded_reliability_trials).
//
// A shard's replica carries exactly the mutable state the trial-isolation
// path (begin_trial/reseed) would otherwise reset: the virtual clock, every
// TSPU device's tables and RNG cursors, the measurement hosts' protocol
// counters, the worker's DNS transaction-id cursor, and the worker's
// buffer-pool high-water mark. Everything else a trial touches is either
// re-derived statelessly from the item seed (fault/loss/eviction streams)
// or reset to empty at every begin_trial (captures, flows, fresh ports) —
// see kCheckpointCodecRegistry in runner/checkpoint.cc.
//
// The in-flight event queue is deliberately NOT serialized: snapshots are
// taken at wave barriers, where pending events belong to already-completed
// items; both the uninterrupted and the resumed run drain them muted inside
// the next begin_trial, so they cannot reach any output.
#pragma once

#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "tspu/device.h"
#include "util/statecodec.h"

namespace tspu::measure {

/// Serializes one shard replica: virtual clock, devices (in the caller's
/// deterministic order), host protocol counters, DNS id cursor, buffer-pool
/// high-water mark.
void save_topo_shard(netsim::Network& net,
                     const std::vector<core::Device*>& devices,
                     const std::vector<netsim::Host*>& hosts,
                     util::StateWriter& w);

/// Restores a shard replica saved by save_topo_shard onto a freshly built
/// one. Restore order matters: the replica is drained and its clock is
/// advanced to the saved instant FIRST (an empty-queue run_for is a pure
/// clock jump), and only then are the device tables installed — restoring
/// tables first would put entry timestamps in the simulator's future and
/// trip the TSPU_AUDIT "updated in the future" invariant in Debug builds.
/// Runs muted; false on any decode mismatch (including a device-count or
/// host-count disagreement and a saved clock behind the replica's).
bool load_topo_shard(netsim::Network& net,
                     const std::vector<core::Device*>& devices,
                     const std::vector<netsim::Host*>& hosts,
                     util::StateReader& r);

}  // namespace tspu::measure
