// Deterministic sharded execution of independent simulation work items.
//
// The paper's measurements are embarrassingly parallel: every endpoint probe,
// domain test, and reliability trial runs against its own miniature internet.
// The runner exploits that by giving each of K worker threads a private
// replica of the world (rebuilt from the same config + seed, so replicas are
// identical) and assigning items round-robin: item i runs on shard i % K.
//
// Determinism contract: a work item's result may depend only on (a) the
// replica's configuration and seed, and (b) the item's own index/seed — never
// on which items ran before it on the same replica. Callers enforce (b) with
// the topo begin_trial()/reseed hooks; the runner then guarantees the merged
// result vector is bit-identical for every K, including K=1, because slot i
// is written only by the shard that owns item i and shards never share state.
//
// checkpointed_map is the one wave loop: it assigns items to shards, builds
// each shard's replica muted, merges the per-shard flight recorders, and —
// given a codec and a snapshot path — checkpoints at wave barriers
// (runner/checkpoint.h). shard_map and parallel_map are its no-snapshot case.
//
// This is the only place in src/ allowed to touch threads: tspulint's
// raw-thread rule keeps ad-hoc concurrency (and with it nondeterminism) out
// of the simulation and measurement layers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "runner/checkpoint.h"
#include "util/statecodec.h"

namespace tspu::runner {

/// Number of worker threads the hardware supports (always >= 1).
int hardware_jobs();

/// Resolves a requested job count: values <= 0 mean "use hardware_jobs()";
/// positive values are taken as-is (oversubscription is allowed — results
/// do not depend on the count).
int effective_jobs(int requested);

/// Deterministic per-item seed: splitmix64 of (root, index), so neighboring
/// items get uncorrelated RNG streams and item i's seed never depends on how
/// many items ran before it.
std::uint64_t item_seed(std::uint64_t root, std::uint64_t index);

namespace detail {

/// Runs body(shard) on `jobs` worker threads and joins them all; with
/// jobs == 1 the body runs inline on the calling thread. Exceptions are
/// captured per shard and the lowest shard's exception is rethrown after
/// the join, so error reporting is deterministic too.
void run_shards(int jobs, const std::function<void(int shard)>& body);

/// Emplace adapter: lets std::optional<Ctx>::emplace build a non-movable
/// context in place via guaranteed copy elision of make(shard)'s return.
template <typename Make, typename Ctx>
struct CtxEmplacer {
  Make& make;
  int shard;
  operator Ctx() && { return make(shard); }  // NOLINT: implicit by design
};

/// The codec of the no-snapshot case (shard_map, parallel_map). None of its
/// operations is ever called, so it has none.
struct NoSnapshot {};

}  // namespace detail

/// Runs fn(ctx, i) for every i in [0, n_items) and returns the results in
/// item order. Item i runs on shard i % jobs, against the context
/// make_ctx(shard) built (muted) on that shard's worker thread; each shard
/// processes its items in increasing index order and destroys its context
/// on its own thread once its last item is done. jobs <= 0 selects hardware
/// concurrency, and never more shards than items are started.
///
/// make_ctx must build the context in its return statement (guaranteed
/// copy elision covers non-movable worlds like topo::NationalTopology);
/// wrap multi-step setup in a struct of unique_ptrs if needed.
///
/// With a snapshot path in `opts`, `codec` supplies the campaign-specific
/// encoding:
///
///   std::uint64_t identity() const;                  // config hash
///   void encode(const Result&, util::StateWriter&);  // result -> blob
///   bool decode(Result&, util::StateReader&);        // blob -> result
///   void save_shard(Ctx&, util::StateWriter&);       // context -> blob
///   bool load_shard(Ctx&, util::StateReader&);       // blob -> context
///
/// Result must then be default-constructible (decode target), and
/// encode(decode(b)) must reproduce b byte-for-byte — the snapshot is
/// re-encoded from decoded results on the next checkpoint, and the codec
/// property tests pin this. A campaign whose last wave has finished returns
/// its results; it is never interrupted.
///
/// Throws CampaignInterrupted (snapshot already written) on SIGTERM or the
/// abort_after_items hook; throws std::runtime_error when a resume snapshot
/// is missing, corrupt, or from a different campaign.
template <typename MakeCtx, typename Fn, typename Codec>
auto checkpointed_map(std::size_t n_items, int jobs_requested,
                      MakeCtx&& make_ctx, Fn&& fn,
                      [[maybe_unused]] Codec&& codec,
                      [[maybe_unused]] const CheckpointOptions& opts) {
  using Ctx = std::invoke_result_t<MakeCtx&, int>;
  using Result = std::invoke_result_t<Fn&, Ctx&, std::size_t>;
  constexpr bool kCodec =
      !std::is_same_v<std::decay_t<Codec>, detail::NoSnapshot>;
  static_assert(!std::is_void_v<Result>,
                "sharded items must return a value to merge");
  static_assert(!kCodec || std::is_default_constructible_v<Result>,
                "checkpointed_map results must be default-constructible "
                "(snapshot decode target)");

  if (n_items == 0) return std::vector<Result>{};
  const std::size_t uj = std::min<std::size_t>(
      static_cast<std::size_t>(effective_jobs(jobs_requested)), n_items);
  const int jobs = static_cast<int>(uj);

  std::vector<std::optional<Result>> slots(n_items);
  // Flight recorder: each shard records into a private child recorder,
  // merged into the caller's recorder in shard order at completion.
  // Counters merge by commutative sums and trace items are disjoint (item
  // i only ever runs on shard i % jobs), so the merged snapshot is
  // identical for every job count. Replica construction is muted: jobs=K
  // builds K replicas, so its events are inherently K-dependent.
  obs::Recorder* parent = obs::recorder();
  std::vector<std::unique_ptr<obs::Recorder>> children(uj);
  std::vector<std::optional<Ctx>> contexts(uj);
  /// Saved shard-context blobs, applied once when a shard first builds its
  /// replica. Populated only when the snapshot's job count matches ours;
  /// otherwise fresh replicas are equivalent by the determinism contract.
  std::vector<std::string> shard_restore;
  /// Recorder blobs inherited from interrupted generations; merged into the
  /// parent at completion and carried forward into every snapshot so a
  /// resume-of-a-resume still reproduces the full history.
  std::vector<std::string> base_recorders;

  std::size_t start = 0;
  // Wave size: one wave unless snapshots are on, in which case the cadence
  // is rounded up to a shard multiple so a snapshot always happens at a
  // barrier, with every shard quiescent.
  std::size_t chunk = n_items;
  if constexpr (kCodec) {
    if (opts.resume) {
      std::optional<Snapshot> snap = read_snapshot(opts.path);
      if (!snap) {
        throw std::runtime_error("checkpoint: cannot resume from '" +
                                 opts.path +
                                 "': missing or corrupt snapshot");
      }
      if (snap->identity != codec.identity() || snap->n_items != n_items ||
          snap->next_index > n_items ||
          snap->results.size() != snap->next_index) {
        throw std::runtime_error(
            "checkpoint: snapshot belongs to a different campaign");
      }
      for (const auto& [index, blob] : snap->results) {
        if (index >= n_items) {
          throw std::runtime_error("checkpoint: result index out of range");
        }
        util::StateReader r(blob);
        Result res{};
        if (!codec.decode(res, r) || !r.done()) {
          throw std::runtime_error("checkpoint: result blob rejected");
        }
        slots[index].emplace(std::move(res));
      }
      base_recorders = std::move(snap->recorder_blobs);
      if (snap->shard_count == static_cast<std::uint32_t>(jobs)) {
        shard_restore = std::move(snap->shard_blobs);
      }
      start = static_cast<std::size_t>(snap->next_index);
    }
    if (!opts.path.empty()) {
      chunk = ((std::max<std::size_t>(opts.every_n_items, 1) + uj - 1) / uj) *
              uj;
    }
  }

  for (std::size_t wave_begin = start; wave_begin < n_items;) {
    const std::size_t wave_end = std::min(n_items, wave_begin + chunk);
    const bool last_wave = wave_end == n_items;
    detail::run_shards(jobs, [&](int shard) {
      const auto us = static_cast<std::size_t>(shard);
      std::optional<obs::RecorderScope> scope;
      if (parent != nullptr) {
        if (!children[us]) {
          children[us] = std::make_unique<obs::Recorder>(parent->config());
        }
        scope.emplace(*children[us]);
      }
      if (!contexts[us]) {
        {
          obs::MuteGuard mute;
          contexts[us].emplace(
              detail::CtxEmplacer<MakeCtx, Ctx>{make_ctx, shard});
        }
        if constexpr (kCodec) {
          if (us < shard_restore.size()) {
            util::StateReader r(shard_restore[us]);
            if (!codec.load_shard(*contexts[us], r) || !r.done()) {
              throw std::runtime_error(
                  "checkpoint: shard state blob rejected on resume");
            }
          }
        }
      }
      // The first index at or after wave_begin that this shard owns.
      std::size_t i = wave_begin + ((us + uj - wave_begin % uj) % uj);
      for (; i < wave_end; i += uj) {
        obs::begin_item(i);
        slots[i].emplace(fn(*contexts[us], i));
      }
      // Tear the replica down here, in parallel with the other shards,
      // rather than serially on the calling thread.
      if (last_wave) contexts[us].reset();
    });
    wave_begin = wave_end;

    if constexpr (kCodec) {
      if (last_wave) break;
      Snapshot snap;
      snap.identity = codec.identity();
      snap.n_items = n_items;
      snap.next_index = wave_end;
      snap.shard_count = static_cast<std::uint32_t>(jobs);
      snap.results.reserve(wave_end);
      for (std::size_t k = 0; k < wave_end; ++k) {
        util::StateWriter w;
        codec.encode(*slots[k], w);
        snap.results.emplace_back(k, w.take());
      }
      snap.recorder_blobs = base_recorders;
      for (const std::unique_ptr<obs::Recorder>& child : children) {
        if (!child) continue;
        util::StateWriter w;
        child->save_state(w);
        snap.recorder_blobs.push_back(w.take());
      }
      for (std::optional<Ctx>& ctx : contexts) {
        util::StateWriter w;
        if (ctx) codec.save_shard(*ctx, w);
        snap.shard_blobs.push_back(w.take());
      }
      if (!write_snapshot(opts.path, snap)) {
        throw std::runtime_error("checkpoint: cannot write snapshot to '" +
                                 opts.path + "'");
      }
      if (sigterm_requested() || (opts.abort_after_items != 0 &&
                                  wave_end >= opts.abort_after_items)) {
        throw CampaignInterrupted(opts.path, wave_end);
      }
    }
  }

  if (parent != nullptr) {
    for (const std::string& blob : base_recorders) {
      obs::Recorder base(parent->config());
      util::StateReader r(blob);
      if (!base.load_state(r) || !r.done()) {
        throw std::runtime_error("checkpoint: recorder blob rejected");
      }
      parent->merge_from(std::move(base));
    }
    for (std::unique_ptr<obs::Recorder>& child : children) {
      if (child) parent->merge_from(std::move(*child));
    }
  }

  std::vector<Result> out;
  out.reserve(n_items);
  for (std::optional<Result>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

/// checkpointed_map without snapshots: fn(ctx, i) on per-shard contexts.
template <typename MakeCtx, typename Fn>
auto shard_map(std::size_t n_items, int jobs, MakeCtx&& make_ctx, Fn&& fn) {
  return checkpointed_map(n_items, jobs, make_ctx, fn, detail::NoSnapshot{},
                          CheckpointOptions{});
}

/// Context-free variant for items that carry all their state: fn(i).
template <typename Fn>
auto parallel_map(std::size_t n_items, int jobs, Fn&& fn) {
  return shard_map(n_items, jobs, [](int) { return 0; },
                   [&fn](int&, std::size_t i) { return fn(i); });
}

}  // namespace tspu::runner
