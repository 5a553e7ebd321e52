// Runtime parameters controlling a suite run (the RAJAPerf command line).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "suite/types.hpp"

namespace rperf::suite {

struct RunParams {
  /// Multiplier on each kernel's default problem size.
  double size_factor = 1.0;
  /// Override problem size outright (ignores size_factor when set).
  std::optional<Index_type> size_override;
  /// Multiplier on each kernel's default repetition count.
  double reps_factor = 1.0;
  /// Hard floor/ceiling on repetitions after scaling.
  Index_type min_reps = 1;
  Index_type max_reps = 1000000;
  /// Number of measurement passes; the reported time is the minimum.
  int npasses = 1;

  /// Run only these kernels (full names, e.g. "Stream_TRIAD"); empty = all.
  std::vector<std::string> kernel_filter;
  /// Run only these groups; empty = all.
  std::vector<GroupID> group_filter;
  /// Run only these variants; empty = all available per kernel.
  std::vector<VariantID> variant_filter;
  /// Run only kernels exercising this feature.
  std::optional<FeatureID> feature_filter;
  /// Run every registered tuning of each kernel (default: only "default").
  bool run_tunings = false;

  /// Directory for .cali.json profiles; empty = don't write.
  std::string output_dir;
  /// Crash-consistent profile store directory (rperf::store); every run
  /// lands there as a journaled, content-addressed .rps run. Empty = off.
  std::string store_dir;
  /// Record a merged Chrome/Perfetto timeline for the sweep (all processes
  /// and threads, including sandboxed workers). Enabled by --trace[=PATH].
  bool trace = false;
  /// Attach the perf_event_open region counter service (rperf::hwc) to
  /// every cell: measured per-region PAPI-named counters in profiles, a
  /// counter record per cell in the store, and hwc_source/
  /// hwc_unavailable_reason run metadata. Degrades to the simulator —
  /// never fails the run — when perf events are unavailable.
  bool hwc = false;
  /// Destination for the trace file; empty = <outdir>/trace.json (or
  /// ./trace.json when no outdir is set).
  std::string trace_path;
  /// Extra metadata recorded in every profile.
  std::vector<std::pair<std::string, std::string>> metadata;

  /// Relative tolerance for cross-variant checksum agreement.
  double checksum_tolerance = 1e-7;

  // ----- fault tolerance -----
  /// Continue the sweep past failed cells (record status, keep results for
  /// everything else). Disable with --no-keep-going to stop at the first
  /// failure; remaining cells are recorded as Skipped.
  bool keep_going = true;
  /// Re-run a Failed/ChecksumInvalid cell up to this many extra attempts.
  int retries = 0;
  /// Base delay before a retry; doubles per attempt (exponential backoff).
  int retry_backoff_ms = 50;
  /// Per-kernel wall-clock budget in seconds enforced by a watchdog check
  /// between measurement passes; <= 0 disables the budget.
  double max_kernel_seconds = 0.0;
  /// Skip cells recorded as Passed in <output_dir>/progress.jsonl from a
  /// previous (interrupted or partially failed) run.
  bool resume = false;
  /// Fault-injection spec (see faults/injector.hpp grammar); empty = off.
  std::string fault_spec;
  /// Seed for the injector's deterministic probability decisions.
  std::uint32_t fault_seed = 7u;

  // ----- sandboxed execution (rperf::sandbox) -----
  /// Process isolation granularity: None runs cells in-process; Kernel and
  /// Cell run them on the worker pool, which (with workers == 0) retires
  /// its one worker after each kernel's last cell or after every cell.
  /// Isolated modes contain SIGSEGV/abort/OOM/hangs to the worker and
  /// record forensics in <outdir>/crashes.jsonl.
  IsolationMode isolate = IsolationMode::None;
  /// A cell that crashes its worker this many times is quarantined: skipped
  /// with a recorded reason instead of re-attempted. Counts persist in
  /// crashes.jsonl across --resume runs.
  int quarantine_after = 3;
  /// Wall-clock budget per cell enforced by the pool supervisor (SIGTERM
  /// then SIGKILL). <= 0 disables.
  double max_cell_seconds = 0.0;
  /// RLIMIT_AS for workers, in MiB; 0 = inherit the parent's limit.
  std::size_t sandbox_mem_mb = 0;
  /// RLIMIT_CPU for workers, in seconds; <= 0 = inherit. Applies only when
  /// workers == 0 (a worker retired per cell or per kernel): a persistent
  /// worker's CPU time accrues across cells, so it relies on wall
  /// deadlines instead.
  double sandbox_cpu_seconds = 0.0;

  // ----- persistent worker pool (rperf::sandbox::WorkerPool) -----
  /// Number of persistent sandbox workers. 0 (the default) runs isolated
  /// cells on one worker retired per cell or per kernel (see isolate).
  /// With N >= 1, isolated cells are dispatched as a work queue to N
  /// supervised long-lived workers (heartbeats, crash recycling, central
  /// deadlines, backpressure). --workers with --isolate none implies
  /// --isolate cell, and persistent workers are never retired, whatever
  /// the kernel/cell granularity.
  int workers = 0;
  /// Worker heartbeat period (worker-side) in milliseconds.
  int heartbeat_interval_ms = 100;
  /// Supervisor-side silence budget: a worker that produces no frame for
  /// this long is killed and recycled; its cell is retried elsewhere.
  int heartbeat_timeout_ms = 2000;

  [[nodiscard]] bool wants_kernel(const std::string& name) const {
    if (kernel_filter.empty()) return true;
    for (const auto& k : kernel_filter) {
      if (k == name) return true;
    }
    return false;
  }

  [[nodiscard]] bool wants_group(GroupID g) const {
    if (group_filter.empty()) return true;
    for (GroupID f : group_filter) {
      if (f == g) return true;
    }
    return false;
  }

  [[nodiscard]] bool wants_variant(VariantID v) const {
    if (variant_filter.empty()) return true;
    for (VariantID f : variant_filter) {
      if (f == v) return true;
    }
    return false;
  }

  /// Parse RAJAPerf-style command-line arguments:
  ///   --size-factor F  --size N  --reps-factor F  --npasses N
  ///   --kernels A,B    --groups G,H  --variants V,W  --outdir DIR
  ///   --tunings        (run all registered tunings)
  /// Both "--flag VALUE" and "--flag=VALUE" spellings are accepted.
  /// Throws std::invalid_argument on malformed input.
  static RunParams parse(int argc, const char* const* argv);

  /// Usage text for executables embedding the suite.
  static std::string usage();
};

}  // namespace rperf::suite
