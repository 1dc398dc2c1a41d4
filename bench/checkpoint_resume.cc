// Checkpoint/resume overhead bench and kill/resume CI driver.
//
// Bench mode (no --ckpt): runs a reduced national scan three ways —
// uninterrupted without checkpointing, checkpointed at a tight cadence, and
// killed at mid-campaign then resumed — and verifies all three produce
// byte-identical records, metrics JSON, and trace JSONL (the
// runner/checkpoint.h durability contract). Reports the checkpointing
// wall-time overhead and snapshot size to stderr; stdout and the
// BENCH report stay deterministic across job counts.
//
// Driver mode (--ckpt PATH): runs one checkpointed scan for the CI leg.
//   --ckpt PATH        snapshot file (enables driver mode)
//   --resume           resume from PATH instead of starting fresh
//   --abort-after N    simulate a kill once >= N items completed (exit 3)
//   --every N          checkpoint cadence in items (default 8)
//   --jobs N           worker threads (default: hardware concurrency)
//   --out PREFIX       on completion write PREFIX.records,
//                      PREFIX.metrics.json, PREFIX.trace.jsonl for
//                      byte-for-byte comparison against a clean run
// A real SIGTERM behaves like --abort-after: the wave finishes, the
// snapshot is written, and the process exits 3.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.h"
#include "measure/scan.h"
#include "obs/obs.h"
#include "runner/checkpoint.h"
#include "topo/national.h"
#include "util/statecodec.h"

namespace {

using namespace tspu;

topo::NationalConfig national_config() {
  topo::NationalConfig cfg;
  cfg.endpoint_scale = 0.0005;
  cfg.n_ases = 60;
  return cfg;
}

measure::ParallelScanConfig scan_config(std::size_t max_endpoints) {
  measure::ParallelScanConfig scan;
  scan.fingerprint = true;
  scan.localize = true;
  scan.trace_links = true;
  scan.max_endpoints = max_endpoints;
  return scan;
}

obs::TraceConfig trace_config() {
  obs::TraceConfig tc;
  tc.enabled = true;
  tc.per_item_cap = 4096;
  return tc;
}

/// Everything the durability contract promises to reproduce byte-for-byte.
struct Artifacts {
  std::string records;
  std::string metrics_json;
  std::string trace_jsonl;
};

std::string encode_records(const std::vector<measure::ScanRecord>& records) {
  util::StateWriter w;
  for (const measure::ScanRecord& rec : records) {
    measure::encode_scan_record(rec, w);
  }
  return w.take();
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

void spew(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// -------------------------------------------------------------------------
// Bench mode
// -------------------------------------------------------------------------

Artifacts run_once(std::size_t max_endpoints, int jobs,
                   const runner::CheckpointOptions& ckpt, double* wall_out) {
  obs::Recorder rec(trace_config());
  const auto t0 = std::chrono::steady_clock::now();
  measure::ParallelScanOutcome out;
  {
    obs::RecorderScope scope(rec);
    out = measure::parallel_scan(national_config(), scan_config(max_endpoints),
                                 jobs, ckpt);
  }
  if (wall_out != nullptr) {
    *wall_out =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return Artifacts{encode_records(out.records), rec.metrics.to_json(),
                   rec.trace.to_jsonl()};
}

int bench_mode() {
  bench::banner("checkpoint_resume",
                "checkpoint/resume overhead and byte-identity");
  bench::BenchReport report("checkpoint_resume");
  const auto max_endpoints = static_cast<std::size_t>(24 * report.scale());
  const int jobs = report.jobs();
  const std::string path = "checkpoint_resume.ckpt";

  double wall_plain = 0, wall_ckpt = 0;
  const Artifacts plain =
      run_once(max_endpoints, jobs, runner::CheckpointOptions{}, &wall_plain);

  runner::CheckpointOptions every_wave;
  every_wave.path = path;
  every_wave.every_n_items = 8;
  const Artifacts ckpt = run_once(max_endpoints, jobs, every_wave, &wall_ckpt);
  const std::uint64_t snapshot_bytes = file_size(path);

  runner::CheckpointOptions kill = every_wave;
  kill.abort_after_items = max_endpoints / 2;
  bool interrupted = false;
  obs::Recorder dead_rec(trace_config());
  try {
    obs::RecorderScope scope(dead_rec);
    measure::parallel_scan(national_config(), scan_config(max_endpoints), jobs,
                           kill);
  } catch (const runner::CampaignInterrupted& e) {
    interrupted = true;
    std::fprintf(stderr, "checkpoint_resume: %s\n", e.what());
  }
  runner::CheckpointOptions resume = every_wave;
  resume.resume = true;
  const Artifacts resumed = run_once(max_endpoints, jobs, resume, nullptr);

  const bool ckpt_identical = ckpt.records == plain.records &&
                              ckpt.metrics_json == plain.metrics_json &&
                              ckpt.trace_jsonl == plain.trace_jsonl;
  const bool resume_identical = resumed.records == plain.records &&
                                resumed.metrics_json == plain.metrics_json &&
                                resumed.trace_jsonl == plain.trace_jsonl;

  std::printf("endpoints probed        %zu\n", max_endpoints);
  std::printf("record bytes            %zu\n", plain.records.size());
  std::printf("checkpointed identical  %s\n", ckpt_identical ? "yes" : "NO");
  std::printf("kill at item            %zu\n", kill.abort_after_items);
  std::printf("interrupted as expected %s\n", interrupted ? "yes" : "NO");
  std::printf("resumed identical       %s\n", resume_identical ? "yes" : "NO");
  std::fprintf(stderr,
               "checkpoint_resume: plain %.2fs, checkpointed %.2fs "
               "(+%.1f%%), snapshot %" PRIu64 " bytes\n",
               wall_plain, wall_ckpt,
               wall_plain > 0 ? 100.0 * (wall_ckpt - wall_plain) / wall_plain
                              : 0.0,
               snapshot_bytes);

  report.metric("endpoints_probed", max_endpoints);
  report.metric("record_bytes", plain.records.size());
  report.metric("checkpointed_identical", ckpt_identical ? 1 : 0);
  report.metric("resume_identical", resume_identical ? 1 : 0);
  report.write();
  std::remove(path.c_str());
  return ckpt_identical && interrupted && resume_identical ? 0 : 1;
}

// -------------------------------------------------------------------------
// Driver mode (CI leg)
// -------------------------------------------------------------------------

int driver_mode(const std::string& ckpt_path, bool do_resume,
                std::size_t abort_after, std::size_t every, int jobs,
                const std::string& out_prefix) {
  runner::install_sigterm_checkpoint();
  runner::CheckpointOptions opts;
  opts.path = ckpt_path;
  opts.resume = do_resume;
  opts.every_n_items = every;
  opts.abort_after_items = abort_after;

  obs::Recorder rec(trace_config());
  measure::ParallelScanOutcome out;
  try {
    obs::RecorderScope scope(rec);
    out = measure::parallel_scan(national_config(), scan_config(24), jobs,
                                 opts);
  } catch (const runner::CampaignInterrupted& e) {
    std::fprintf(stderr, "checkpoint_resume: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "checkpoint_resume: %s\n", e.what());
    return 1;
  }

  std::printf("completed %zu records\n", out.records.size());
  if (!out_prefix.empty()) {
    spew(out_prefix + ".records", encode_records(out.records));
    spew(out_prefix + ".metrics.json", rec.metrics.to_json());
    spew(out_prefix + ".trace.jsonl", rec.trace.to_jsonl());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string ckpt_path, out_prefix;
  bool do_resume = false;
  std::size_t abort_after = 0, every = 8;
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "checkpoint_resume: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--ckpt") {
      ckpt_path = value();
    } else if (arg == "--resume") {
      do_resume = true;
    } else if (arg == "--abort-after") {
      abort_after = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--every") {
      every = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--jobs") {
      jobs = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (arg == "--out") {
      out_prefix = value();
    } else {
      std::fprintf(stderr,
                   "usage: checkpoint_resume [--ckpt PATH [--resume] "
                   "[--abort-after N] [--every N] [--jobs N] [--out "
                   "PREFIX]]\n");
      return 2;
    }
  }
  if (ckpt_path.empty()) return bench_mode();
  return driver_mode(ckpt_path, do_resume, abort_after, every, jobs,
                     out_prefix);
}
