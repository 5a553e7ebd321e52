#include "suite/run_params.hpp"

#include <sstream>
#include <stdexcept>

#include "faults/injector.hpp"

namespace rperf::suite {

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(s);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

RunParams RunParams::parse(int argc, const char* const* argv) {
  RunParams p;
  // Normalize "--flag=value" into "--flag" "value" so both spellings work.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string raw = argv[i];
    const std::size_t eq = raw.find('=');
    if (raw.rfind("--", 0) == 0 && eq != std::string::npos) {
      args.push_back(raw.substr(0, eq));
      args.push_back(raw.substr(eq + 1));
    } else {
      args.push_back(raw);
    }
  }
  const int n = static_cast<int>(args.size());
  auto need_value = [&](int i, const std::string& flag) {
    if (i + 1 >= n) {
      throw std::invalid_argument("missing value for " + flag);
    }
    return args[i + 1];
  };
  for (int i = 0; i < n; ++i) {
    const std::string arg = args[i];
    if (arg == "--size-factor") {
      p.size_factor = std::stod(need_value(i, arg));
      ++i;
    } else if (arg == "--size") {
      p.size_override = static_cast<Index_type>(std::stoll(need_value(i, arg)));
      ++i;
    } else if (arg == "--reps-factor") {
      p.reps_factor = std::stod(need_value(i, arg));
      ++i;
    } else if (arg == "--npasses") {
      p.npasses = std::stoi(need_value(i, arg));
      ++i;
    } else if (arg == "--kernels") {
      p.kernel_filter = split_csv(need_value(i, arg));
      ++i;
    } else if (arg == "--groups") {
      for (const auto& g : split_csv(need_value(i, arg))) {
        p.group_filter.push_back(group_from_string(g));
      }
      ++i;
    } else if (arg == "--variants") {
      for (const auto& v : split_csv(need_value(i, arg))) {
        p.variant_filter.push_back(variant_from_string(v));
      }
      ++i;
    } else if (arg == "--outdir") {
      p.output_dir = need_value(i, arg);
      ++i;
    } else if (arg == "--store") {
      p.store_dir = need_value(i, arg);
      ++i;
    } else if (arg == "--trace") {
      p.trace = true;
      // Optional value: "--trace=PATH" (or "--trace PATH"); a following
      // flag means "use the default path".
      if (i + 1 < n && args[i + 1].rfind("-", 0) != 0) {
        p.trace_path = args[i + 1];
        ++i;
      }
    } else if (arg == "--hwc") {
      p.hwc = true;
    } else if (arg == "--tunings") {
      p.run_tunings = true;
    } else if (arg == "--keep-going") {
      p.keep_going = true;
    } else if (arg == "--no-keep-going") {
      p.keep_going = false;
    } else if (arg == "--retries") {
      p.retries = std::stoi(need_value(i, arg));
      ++i;
    } else if (arg == "--retry-backoff-ms") {
      p.retry_backoff_ms = std::stoi(need_value(i, arg));
      ++i;
    } else if (arg == "--max-kernel-seconds") {
      p.max_kernel_seconds = std::stod(need_value(i, arg));
      ++i;
    } else if (arg == "--resume") {
      p.resume = true;
    } else if (arg == "--faults") {
      p.fault_spec = need_value(i, arg);
      ++i;
    } else if (arg == "--fault-seed") {
      p.fault_seed =
          static_cast<std::uint32_t>(std::stoul(need_value(i, arg)));
      ++i;
    } else if (arg == "--isolate") {
      p.isolate = isolation_from_string(need_value(i, arg));
      ++i;
    } else if (arg == "--quarantine-after") {
      p.quarantine_after = std::stoi(need_value(i, arg));
      ++i;
    } else if (arg == "--max-cell-seconds") {
      p.max_cell_seconds = std::stod(need_value(i, arg));
      ++i;
    } else if (arg == "--sandbox-mem-mb") {
      p.sandbox_mem_mb =
          static_cast<std::size_t>(std::stoull(need_value(i, arg)));
      ++i;
    } else if (arg == "--sandbox-cpu-seconds") {
      p.sandbox_cpu_seconds = std::stod(need_value(i, arg));
      ++i;
    } else if (arg == "--workers") {
      p.workers = std::stoi(need_value(i, arg));
      ++i;
    } else if (arg == "--heartbeat-interval-ms") {
      p.heartbeat_interval_ms = std::stoi(need_value(i, arg));
      ++i;
    } else if (arg == "--heartbeat-timeout-ms") {
      p.heartbeat_timeout_ms = std::stoi(need_value(i, arg));
      ++i;
    } else if (arg == "--transport") {
      // Accepted and ignored: every worker record rides CRC pipe frames.
      // Kept only because perfbench/run.py passes it; retires with the
      // next benchmark change.
      const std::string v = need_value(i, arg);
      if (v != "shm" && v != "json") {
        throw std::invalid_argument("--transport must be shm or json");
      }
      ++i;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (p.size_factor <= 0.0) {
    throw std::invalid_argument("--size-factor must be > 0");
  }
  if (p.npasses < 1) throw std::invalid_argument("--npasses must be >= 1");
  if (p.retries < 0) throw std::invalid_argument("--retries must be >= 0");
  if (p.retry_backoff_ms < 0) {
    throw std::invalid_argument("--retry-backoff-ms must be >= 0");
  }
  if (p.quarantine_after < 1) {
    throw std::invalid_argument("--quarantine-after must be >= 1");
  }
  if (p.workers < 0) throw std::invalid_argument("--workers must be >= 0");
  if (p.heartbeat_interval_ms < 1 || p.heartbeat_timeout_ms < 1) {
    throw std::invalid_argument(
        "--heartbeat-interval-ms/--heartbeat-timeout-ms must be >= 1");
  }
  // Asking for a worker pool is asking for isolation: imply cell mode so
  // "--workers 4" alone does the expected thing.
  if (p.workers > 0 && p.isolate == IsolationMode::None) {
    p.isolate = IsolationMode::Cell;
  }
  // Validate the fault grammar eagerly so a typo fails at parse time, not
  // mid-sweep.
  (void)faults::Injector::parse(p.fault_spec);
  return p;
}

std::string RunParams::usage() {
  return "options:\n"
         "  --size-factor F   scale each kernel's default problem size\n"
         "  --size N          override problem size for all kernels\n"
         "  --reps-factor F   scale each kernel's default repetitions\n"
         "  --npasses N       measurement passes (report the minimum)\n"
         "  --kernels A,B     run only the named kernels\n"
         "  --groups G,H      run only the named groups\n"
         "  --variants V,W    run only the named variants\n"
         "  --tunings         run every registered tuning per kernel\n"
         "  --outdir DIR      write one .cali.json profile per variant\n"
         "  --store DIR       land the run in the crash-consistent .rps\n"
         "                    profile store at DIR (journaled, torn-write\n"
         "                    safe; query with rperf-report --store)\n"
         "  --trace[=PATH]    record a merged Chrome/Perfetto timeline of\n"
         "                    the whole sweep (all processes and threads)\n"
         "                    to PATH (default <outdir>/trace.json); open\n"
         "                    at ui.perfetto.dev\n"
         "  --hwc             read hardware counters (perf_event_open)\n"
         "                    per kernel region and attribute them under\n"
         "                    PAPI preset names; falls back to simulated\n"
         "                    counters (hwc_source=simulated metadata +\n"
         "                    recorded reason) when perf events are\n"
         "                    unavailable — never a failure\n"
         "  --keep-going      continue past failed cells (default)\n"
         "  --no-keep-going   stop the sweep at the first failure\n"
         "  --retries N       extra attempts for failed cells (default 0)\n"
         "  --retry-backoff-ms N  base retry delay, doubling per attempt\n"
         "  --max-kernel-seconds S  per-kernel wall-clock budget\n"
         "  --resume          skip cells already Passed in\n"
         "                    <outdir>/progress.jsonl\n"
         "  --faults SPEC     inject faults, e.g.\n"
         "                    'throw@Basic_DAXPY,slow@Lcals_HYDRO_2D:50ms'\n"
         "  --fault-seed N    seed for probabilistic fault decisions\n"
         "  --isolate MODE    run cells in worker processes: none\n"
         "                    (in-process, default), kernel (a fresh\n"
         "                    worker per kernel), cell (one per cell)\n"
         "  --quarantine-after N  skip a cell after N worker crashes\n"
         "                    (default 3; counts persist across --resume)\n"
         "  --max-cell-seconds S  per-cell wall deadline for workers\n"
         "                    (SIGTERM, then SIGKILL after a grace period)\n"
         "  --sandbox-mem-mb N    RLIMIT_AS for workers, in MiB\n"
         "  --sandbox-cpu-seconds S  RLIMIT_CPU for workers (only with\n"
         "                    --workers 0: it accrues over a worker's life)\n"
         "  --workers N       dispatch isolated cells to N persistent,\n"
         "                    supervised sandbox workers (heartbeats,\n"
         "                    crash recycling, central deadlines); implies\n"
         "                    --isolate cell; 0 (default) = one worker,\n"
         "                    retired per cell or per kernel (--isolate)\n"
         "  --heartbeat-interval-ms N  pooled worker beat period\n"
         "  --heartbeat-timeout-ms N   recycle a pooled worker silent for\n"
         "                    this long (default 2000)\n"
         "  --transport shm|json  ignored: worker records always ride\n"
         "                    CRC-checked pipe frames\n";
}

}  // namespace rperf::suite
