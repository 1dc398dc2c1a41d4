// The durability half of the shard runner: snapshot options, the snapshot
// file format, and the SIGTERM latch.
//
// A sharded campaign can run for hours (a 1:1-scale national scan probes
// millions of endpoints); preemption or a SIGTERM would throw all of it
// away. runner::checkpointed_map (runner/runner.h) therefore takes
// CheckpointOptions: with a snapshot path it serializes the full per-shard
// trial state — completed results, per-shard context state (device tables,
// RNG cursors, host counters), and the flight recorder — into a versioned,
// length-prefixed snapshot, written atomically every N items and on
// SIGTERM. Resuming from the snapshot continues the campaign such that the
// final result vector, the merged metrics JSON, and the trace JSONL are
// byte-identical to an uninterrupted run, at any job count.
//
// Why this works:
//  * Results: the runner's determinism contract already makes item i's
//    result a pure function of (replica config + seed, item_seed(root, i)).
//    Completed items are reloaded verbatim; remaining items recompute to
//    the same bytes on any shard.
//  * Shard state: execution proceeds in WAVES (a fixed slice of items, a
//    multiple of the job count) with a barrier between waves; snapshots are
//    taken only at barriers, so each shard's context state is quiescent and
//    serializable. On resume with the same job count the saved state is
//    reloaded exactly; with a different job count fresh replicas are built
//    instead, which the determinism contract proves equivalent.
//  * Observability: the Recorder merge algebra is commutative and
//    associative (counters/histograms sum, gauges max, trace items are
//    disjoint per item), so saved per-shard recorder blobs merged at
//    completion produce the same snapshot as never having stopped.
//
// The runner layer cannot see topo/ or measure/, so the campaign-specific
// encoding lives in a Codec object the caller supplies (see
// measure/scan.cc's ScanCodec for the canonical one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tspu::runner {

struct CheckpointOptions {
  /// Snapshot file. Empty disables checkpointing entirely: checkpointed_map
  /// then runs one wave with no snapshot I/O and no SIGTERM polling.
  std::string path;
  /// Snapshot cadence in items; rounded up to a multiple of the job count
  /// so snapshots land on wave barriers. 0 behaves as 1 wave = jobs items.
  std::size_t every_n_items = 64;
  /// Load `path` before running and continue from its next_index.
  bool resume = false;
  /// Test/CI hook modelling a kill at item K: once at least this many items
  /// have completed (and the campaign is not finished), write a snapshot
  /// and throw CampaignInterrupted. 0 disables.
  std::size_t abort_after_items = 0;
};

/// Thrown by checkpointed_map when the campaign stops early (SIGTERM or the
/// abort_after_items hook) — AFTER the snapshot was written, so the catcher
/// can report the resume path and exit cleanly.
class CampaignInterrupted : public std::exception {
 public:
  CampaignInterrupted(std::string path, std::size_t completed)
      : path_(std::move(path)),
        completed_(completed),
        what_("campaign interrupted after " + std::to_string(completed) +
              " items; checkpoint written to " + path_) {}

  const char* what() const noexcept override { return what_.c_str(); }
  const std::string& checkpoint_path() const { return path_; }
  std::size_t items_completed() const { return completed_; }

 private:
  std::string path_;
  std::size_t completed_;
  std::string what_;
};

/// Installs a SIGTERM handler that latches a flag checked at every wave
/// barrier of a campaign with a snapshot path; the in-progress wave
/// finishes, a snapshot is written, and checkpointed_map throws
/// CampaignInterrupted. Safe to call repeatedly.
void install_sigterm_checkpoint();
/// True once SIGTERM was delivered after install_sigterm_checkpoint().
bool sigterm_requested();
/// Clears the latch (tests that raise SIGTERM at themselves).
void reset_sigterm_for_testing();

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

/// In-memory form of one snapshot file. Blobs are opaque here; their
/// encoding belongs to the campaign's Codec.
struct Snapshot {
  /// Campaign identity (config hash); resume refuses a mismatch.
  std::uint64_t identity = 0;
  std::uint64_t n_items = 0;
  /// Completed prefix: items [0, next_index) are present in `results`.
  std::uint64_t next_index = 0;
  /// Job count at save time; shard_blobs is exactly this long.
  std::uint32_t shard_count = 0;
  std::vector<std::pair<std::uint64_t, std::string>> results;
  /// Per-shard recorder states, PLUS any base blobs inherited from earlier
  /// interrupted generations (a resume of a resume) — merged in order at
  /// campaign completion.
  std::vector<std::string> recorder_blobs;
  std::vector<std::string> shard_blobs;
};

/// Serializes and writes a snapshot atomically: the versioned image
/// (magic, version, body length, FNV-1a checksum, body) goes to
/// `path` + ".tmp" first and is renamed over `path` only once fully
/// written, so a kill mid-write never corrupts the previous snapshot.
bool write_snapshot(const std::string& path, const Snapshot& snapshot);

/// Reads and strictly validates a snapshot: bad magic/version, a short
/// file, a checksum mismatch, or trailing garbage all yield nullopt —
/// never UB, whatever the bytes are.
std::optional<Snapshot> read_snapshot(const std::string& path);

/// Every trial-isolation reset/reseed hook whose underlying mutable state
/// the checkpoint codecs capture (or re-derive statelessly per item).
/// tspulint's ckpt-coverage rule cross-checks this list against the callees
/// of begin_trial/reseed definitions: state reset at a trial boundary must
/// round-trip through a codec or carry an explicit allow marker.
extern const char* const kCheckpointCodecRegistry[];
extern const std::size_t kCheckpointCodecRegistrySize;

}  // namespace tspu::runner
