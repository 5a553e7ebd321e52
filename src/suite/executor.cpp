#include "suite/executor.hpp"

#include <omp.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "faults/injector.hpp"
#include "instrument/hwc.hpp"
#include "instrument/json.hpp"
#include "instrument/trace_export.hpp"
#include "instrument/trace_sink.hpp"
#include "instrument/wire_codec.hpp"
#include "machine/machine.hpp"
#include "mem/cache.hpp"
#include "mem/pool.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/sandbox.hpp"
#include "sandbox/wire.hpp"
#include "suite/data_utils.hpp"

namespace rperf::suite {

namespace {

/// Trace span name for one sweep cell.
std::string cell_span_name(const std::string& kernel, VariantID vid,
                           const std::string& tuning_name) {
  return kernel + " [" + to_string(vid) + "/" + tuning_name + "]";
}

/// Sample the counter tracks (cumulative pool/cache hits and injected
/// faults) onto the trace timeline; called after each finished cell so
/// the tracks step in sync with the spans.
void sample_trace_counters() {
  cali::TraceSink& sink = cali::TraceSink::instance();
  if (!sink.enabled()) return;
  sink.counter(sink.intern("pool_hits"),
               static_cast<double>(mem::pool().stats().reuse_hits));
  sink.counter(sink.intern("cache_hits"),
               static_cast<double>(mem::data_cache().stats().hits));
  sink.counter(sink.intern("fault_fires"),
               static_cast<double>(faults::injector().fires()));
}

/// Stable identity of a sweep cell, used as the progress-file key.
std::string cell_key(const std::string& kernel, VariantID vid,
                     const std::string& tuning_name) {
  return kernel + "/" + to_string(vid) + "/" + tuning_name;
}

/// Short table marker for a non-passed cell.
const char* status_marker(RunStatus s) {
  switch (s) {
    case RunStatus::Passed: return "ok";
    case RunStatus::Failed: return "FAILED";
    case RunStatus::ChecksumInvalid: return "BADSUM";
    case RunStatus::TimedOut: return "TIMEOUT";
    case RunStatus::Skipped: return "SKIPPED";
    case RunStatus::Crashed: return "CRASHED";
    case RunStatus::OutOfMemory: return "OOM";
    case RunStatus::Killed: return "KILLED";
  }
  return "?";
}

/// Write one '\n'-terminated protocol line to a pipe fd (worker side).
/// Runs in the forked worker, so failures terminate abruptly via _exit.
void write_json_line(int fd, json::Object obj) {
  std::string line = json::Value(std::move(obj)).dump();
  line.push_back('\n');
  const char* p = line.data();
  std::size_t n = line.size();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::_exit(3);  // parent gone; nothing sensible left to do
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Merge a cell's hardware-counter sample into a JSON cell record (worker
/// pipe protocols v1/v2); no-op for cells without a sample, so records
/// from --hwc-less runs are byte-identical to before.
void hwc_to_json(const hwc::Sample& s, json::Object& o) {
  if (s.empty()) return;
  o["hwc_source"] = s.source;
  o["hwc_enabled_ns"] = static_cast<std::int64_t>(s.time_enabled_ns);
  o["hwc_running_ns"] = static_cast<std::int64_t>(s.time_running_ns);
  o["hwc_overhead_sec"] = s.overhead_sec;
  json::Object vals;
  for (const auto& [name, value] : s.values) vals[name] = value;
  o["hwc_values"] = std::move(vals);
}

hwc::Sample hwc_from_json(const json::Value& v) {
  hwc::Sample s;
  if (!v.contains("hwc_source")) return s;
  s.source = v.at("hwc_source").as_string();
  s.time_enabled_ns =
      static_cast<std::uint64_t>(v.number_or("hwc_enabled_ns", 0.0));
  s.time_running_ns =
      static_cast<std::uint64_t>(v.number_or("hwc_running_ns", 0.0));
  s.overhead_sec = v.number_or("hwc_overhead_sec", 0.0);
  if (v.contains("hwc_values")) {
    for (const auto& [name, value] : v.at("hwc_values").as_object()) {
      s.values[name] = value.as_number();
    }
  }
  return s;
}

/// Decode a worker "cell" record into the parent-side RunResult.
void decode_cell_record(const json::Value& v, RunResult& r) {
  r.status = run_status_from_string(v.at("status").as_string());
  r.time_per_rep_sec = v.number_or("time_per_rep_sec", -1.0);
  if (v.contains("checksum_hex")) {
    r.checksum = sandbox::checksum_from_hex(v.at("checksum_hex").as_string());
  } else {
    r.checksum = static_cast<long double>(v.number_or("checksum", 0.0));
  }
  r.problem_size = static_cast<Index_type>(v.number_or("problem_size", 0.0));
  r.reps = static_cast<Index_type>(v.number_or("reps", 0.0));
  r.setup_ms = v.number_or("setup_ms", 0.0);
  r.checksum_ms = v.number_or("checksum_ms", 0.0);
  r.pool_hits = static_cast<std::uint64_t>(v.number_or("pool_hits", 0.0));
  r.cache_hits = static_cast<std::uint64_t>(v.number_or("cache_hits", 0.0));
  r.error = v.string_or("error", "");
  r.hwc = hwc_from_json(v);
}

/// Stable dispatch-affinity key for a kernel name (FNV-1a, forced odd so
/// 0 keeps meaning "no affinity").
std::uint64_t affinity_key(const std::string& kernel) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : kernel) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h | 1ull;
}

/// Encode a worker cell record as a v3 wire blob — the binary counterpart
/// of the JSON object worker_run_cell builds for the v2 transport. The
/// checksum crosses as raw long-double bits (put_f80), not hexfloat text.
std::string encode_cell_record_wire(const RunResult& r,
                                    const std::string& injector_state,
                                    const cali::Profile* profile) {
  wire::Writer w;
  w.begin_blob();
  w.put_str(to_string(r.status));
  w.put_f64(r.time_per_rep_sec);
  w.put_f80(r.checksum);
  w.put_i64(static_cast<std::int64_t>(r.problem_size));
  w.put_i64(static_cast<std::int64_t>(r.reps));
  w.put_f64(r.setup_ms);
  w.put_f64(r.checksum_ms);
  w.put_u64(r.pool_hits);
  w.put_u64(r.cache_hits);
  w.put_bytes(r.error);
  w.put_bytes(injector_state);
  w.put_u8(profile != nullptr ? 1 : 0);
  if (profile != nullptr) cali::profile_to_wire(*profile, w);
  w.put_u8(r.hwc.empty() ? 0 : 1);
  if (!r.hwc.empty()) hwc::sample_to_wire(r.hwc, w);
  return w.take();
}

/// Decode a v3 wire cell record (throws wire::Error on corruption, which
/// the caller maps to the malformed-record path like a JSON parse error).
void decode_cell_record_wire(const std::string& blob, RunResult& r,
                             std::string& injector_state,
                             std::optional<cali::Profile>& profile) {
  wire::Reader rd(blob);
  rd.expect_blob();
  r.status = run_status_from_string(rd.get_str());
  r.time_per_rep_sec = rd.get_f64();
  r.checksum = rd.get_f80();
  r.problem_size = static_cast<Index_type>(rd.get_i64());
  r.reps = static_cast<Index_type>(rd.get_i64());
  r.setup_ms = rd.get_f64();
  r.checksum_ms = rd.get_f64();
  r.pool_hits = rd.get_u64();
  r.cache_hits = rd.get_u64();
  r.error = rd.get_bytes();
  injector_state = rd.get_bytes();
  if (rd.get_u8() != 0) profile = cali::profile_from_wire(rd);
  if (rd.get_u8() != 0) r.hwc = hwc::sample_from_wire(rd);
}

/// Classify a worker that terminated without completing the protocol.
void decode_worker_failure(const sandbox::WorkerReport& rep,
                           std::size_t sandbox_mem_mb, RunResult& r) {
  switch (rep.exit) {
    case sandbox::WorkerExit::DeadlineKilled:
      r.status = RunStatus::Killed;
      r.error = "worker killed past the wall-clock deadline";
      return;
    case sandbox::WorkerExit::OomExit:
      r.status = RunStatus::OutOfMemory;
      r.error = "worker " + rep.describe();
      return;
    case sandbox::WorkerExit::Signaled:
      if (rep.signal == SIGXCPU) {
        r.status = RunStatus::Killed;
        r.error = "worker exceeded its CPU limit (SIGXCPU)";
      } else if (rep.signal == SIGKILL && sandbox_mem_mb > 0) {
        // The kernel OOM killer (or an unblockable kill under RLIMIT_AS
        // pressure) leaves SIGKILL as the only evidence.
        r.status = RunStatus::OutOfMemory;
        r.error = "worker killed (SIGKILL) under a memory limit";
      } else {
        r.status = RunStatus::Crashed;
        r.error = "worker " + rep.describe();
      }
      return;
    case sandbox::WorkerExit::NonzeroExit:
      r.status = RunStatus::Crashed;
      r.error = "worker " + rep.describe();
      return;
    case sandbox::WorkerExit::CleanExit:
      r.status = RunStatus::Crashed;
      r.error = "worker exited before completing the pipe protocol";
      return;
  }
}

/// Fault kind a dead worker's status implies, for budget fold-back.
std::optional<faults::FaultKind> implied_fault_kind(const RunResult& r,
                                                    int signal) {
  switch (r.status) {
    case RunStatus::Crashed:
      if (signal == SIGSEGV) return faults::FaultKind::Segv;
      if (signal == SIGABRT) return faults::FaultKind::Abort;
      // ASan converts fatal signals into exit(1); attribute by best guess.
      return faults::FaultKind::Segv;
    case RunStatus::OutOfMemory:
      return faults::FaultKind::Oom;
    case RunStatus::Killed:
      return faults::FaultKind::Hang;
    default:
      return std::nullopt;
  }
}

}  // namespace

Executor::Executor(RunParams params) : params_(std::move(params)) {
  kernels_ = make_kernels(params_);
}

std::string Executor::progress_path() const {
  if (params_.output_dir.empty()) return "";
  return params_.output_dir + "/progress.jsonl";
}

std::string Executor::crashes_path() const {
  if (params_.output_dir.empty()) return "";
  return params_.output_dir + "/crashes.jsonl";
}

RunStatus Executor::run_cell_once(const Cell& cell, cali::Channel& channel,
                                  RunResult& r) {
  r.hwc = hwc::Sample{};  // retries must not accumulate samples
  // Counter service scoped to this cell: attach is fail-open (perf
  // unavailable leaves the service inactive and the channel untouched)
  // and the destructor detaches on every exit path below. Because this
  // runs wherever the cell runs, sandboxed and pooled workers open their
  // event groups post-fork in the worker process — per-thread counters
  // measure the worker, not the supervisor.
  hwc::RegionCounterService hwc_service;
  if (params_.hwc) (void)hwc_service.attach(channel);
  try {
    cell.kernel->execute(cell.vid, cell.tuning, channel);
  } catch (const KernelTimeout& e) {
    r.error = e.what();
    return RunStatus::TimedOut;
  } catch (const std::exception& e) {
    r.error = e.what();
    return RunStatus::Failed;
  } catch (...) {
    r.error = "unknown exception";
    return RunStatus::Failed;
  }
  r.time_per_rep_sec = cell.kernel->time_per_rep(cell.vid, cell.tuning);
  r.checksum = cell.kernel->checksum(cell.vid, cell.tuning);
  r.problem_size = cell.kernel->actual_prob_size();
  r.reps = cell.kernel->run_reps();
  r.setup_ms = cell.kernel->last_setup_sec() * 1e3;
  r.checksum_ms = cell.kernel->last_checksum_sec() * 1e3;
  r.pool_hits = cell.kernel->last_pool_hits();
  r.cache_hits = cell.kernel->last_cache_hits();
  if (params_.hwc) {
    if (hwc_service.regions_observed() > 0) {
      // Measured: the service already attributed multiplex-scaled PAPI
      // metrics to the kernel region at each end() hook.
      r.hwc = hwc_service.sample();
    } else {
      // Degrade to the simulator: analytic per-repetition counters from
      // the probed host model, scaled to the region totals the measured
      // path would have attributed (reps per pass x passes).
      const double scale = static_cast<double>(r.reps) *
                           static_cast<double>(std::max(1, params_.npasses));
      try {
        r.hwc = hwc::simulated_sample(cell.kernel->traits(),
                                      machine::local_host(), scale);
        for (const auto& [name, value] : r.hwc.values) {
          channel.attribute_metric_at(cell.kernel->name(), name, value);
        }
      } catch (const std::exception&) {
        // Even the model declined (no CPU host model): the cell still
        // passes, just without counter metrics.
      }
    }
  }
  if (!std::isfinite(static_cast<double>(r.checksum))) {
    r.error = "checksum is not finite";
    return RunStatus::ChecksumInvalid;
  }
  r.error.clear();
  return RunStatus::Passed;
}

void Executor::append_progress(const RunResult& r) {
  store_append_cell(r);
  const std::string path = progress_path();
  if (path.empty()) return;
  json::Object o;
  o["kernel"] = r.kernel;
  o["variant"] = to_string(r.variant);
  o["tuning"] = r.tuning_name;
  o["status"] = to_string(r.status);
  o["time_per_rep_sec"] = r.time_per_rep_sec;
  o["checksum"] = static_cast<double>(r.checksum);
  // Exact long-double round-trip so restored cells keep bit-identical
  // checksums (the readable double above is for humans and older readers).
  o["checksum_hex"] = sandbox::checksum_to_hex(r.checksum);
  o["problem_size"] = static_cast<std::int64_t>(r.problem_size);
  o["reps"] = static_cast<std::int64_t>(r.reps);
  o["attempts"] = r.attempts;
  o["setup_ms"] = r.setup_ms;
  o["checksum_ms"] = r.checksum_ms;
  o["pool_hits"] = static_cast<std::int64_t>(r.pool_hits);
  o["cache_hits"] = static_cast<std::int64_t>(r.cache_hits);
  if (!r.hwc.empty()) {
    o["hwc_source"] = r.hwc.source;
    if (r.hwc.source != "measured" && !hwc_reason_.empty()) {
      o["hwc_unavailable_reason"] = hwc_reason_;
    }
  }
  // Monotonic milliseconds since run() started, so progress records line
  // up with the trace timeline and crashes.jsonl on one clock.
  o["t_ms"] = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - run_start_)
                  .count();
  if (!r.error.empty()) o["error"] = r.error;
  std::string line = json::Value(std::move(o)).dump();
  line.push_back('\n');
  progress_buffer_ += line;
  // Crash-atomic checkpoint: rewrite the whole file through tmp + fsync +
  // rename(2). A crash at any byte leaves either the previous complete
  // checkpoint or this one — never the torn final line load_progress
  // would otherwise have to drop.
  try {
    store::atomic_write_file(path, progress_buffer_);
  } catch (const store::IoError& e) {
    throw std::runtime_error("cannot write progress file: " +
                             std::string(e.what()));
  }
}

void Executor::store_append_cell(const RunResult& r) {
  if (!store_writer_) return;
  try {
    store::CellRecord c;
    c.kernel = r.kernel;
    c.variant = to_string(r.variant);
    c.tuning = r.tuning_name;
    c.status = to_string(r.status);
    c.time_per_rep_sec = r.time_per_rep_sec;
    c.checksum = r.checksum;  // raw long-double bits round-trip in the store
    c.problem_size = static_cast<std::int64_t>(r.problem_size);
    c.reps = static_cast<std::int64_t>(r.reps);
    c.attempts = static_cast<std::uint32_t>(r.attempts);
    c.error = r.error;
    store_writer_->add_cell(c);
    if (!r.hwc.values.empty()) {
      store::CounterRecord cr;
      cr.kernel = r.kernel;
      cr.variant = to_string(r.variant);
      cr.tuning = r.tuning_name;
      cr.source = r.hwc.source;
      cr.time_enabled_ns = r.hwc.time_enabled_ns;
      cr.time_running_ns = r.hwc.time_running_ns;
      cr.overhead_sec = r.hwc.overhead_sec;
      cr.values = r.hwc.values;
      store_writer_->add_counters(cr);
    }
    store_writer_->commit();
  } catch (const store::StoreError& e) {
    // Losing durability must not lose the sweep: latch the store off,
    // keep running, and surface the failure in the run summary.
    store_error_ = e.what();
    std::cerr << "warning: profile store disabled: " << e.what() << "\n";
    store_writer_.reset();
  }
}

std::map<std::string, std::string> Executor::store_config() const {
  std::map<std::string, std::string> config;
  config["suite"] = "rajaperf-repro";
  config["size_factor"] = std::to_string(params_.size_factor);
  if (params_.size_override) {
    config["size"] = std::to_string(*params_.size_override);
  }
  config["reps_factor"] = std::to_string(params_.reps_factor);
  config["npasses"] = std::to_string(params_.npasses);
  config["tunings"] = params_.run_tunings ? "all" : "default";
  // Only when on, so pre-existing runs keep their content addresses.
  if (params_.hwc) config["hwc"] = "on";
  config["isolate"] = to_string(params_.isolate);
  config["workers"] = std::to_string(params_.workers);
  auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const auto& p : parts) {
      if (!out.empty()) out += ",";
      out += p;
    }
    return out;
  };
  if (!params_.kernel_filter.empty()) {
    config["kernels"] = join(params_.kernel_filter);
  }
  if (!params_.group_filter.empty()) {
    std::vector<std::string> names;
    for (GroupID g : params_.group_filter) names.push_back(to_string(g));
    config["groups"] = join(names);
  }
  if (!params_.variant_filter.empty()) {
    std::vector<std::string> names;
    for (VariantID v : params_.variant_filter) names.push_back(to_string(v));
    config["variants"] = join(names);
  }
  if (!params_.fault_spec.empty()) {
    config["fault_spec"] = params_.fault_spec;
    config["fault_seed"] = std::to_string(params_.fault_seed);
  }
  // --resume is deliberately excluded: a resumed sweep is the same
  // logical run, so it content-addresses to the same run id.
  return config;
}

std::map<std::string, RunResult> Executor::load_progress() const {
  std::map<std::string, RunResult> out;
  const std::string path = progress_path();
  if (path.empty() || !std::filesystem::exists(path)) return out;
  std::ifstream is(path);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::Value::parse(line);
    } catch (const json::JsonError&) {
      // Torn record from a run that died mid-append (crash, power loss).
      // Drop it — the cell re-runs — but say so, since a silently shrunken
      // checkpoint looks like progress evaporating.
      std::cerr << "warning: " << path << ":" << line_no
                << ": dropping truncated checkpoint record; "
                   "the cell will be re-run\n";
      continue;
    }
    try {
      RunResult r;
      r.kernel = v.at("kernel").as_string();
      r.variant = variant_from_string(v.at("variant").as_string());
      r.tuning_name = v.at("tuning").as_string();
      r.status = run_status_from_string(v.at("status").as_string());
      r.time_per_rep_sec = v.number_or("time_per_rep_sec", -1.0);
      if (v.contains("checksum_hex")) {
        r.checksum =
            sandbox::checksum_from_hex(v.at("checksum_hex").as_string());
      } else {
        r.checksum = static_cast<long double>(v.number_or("checksum", 0.0));
      }
      r.problem_size =
          static_cast<Index_type>(v.number_or("problem_size", 0.0));
      r.reps = static_cast<Index_type>(v.number_or("reps", 0.0));
      r.setup_ms = v.number_or("setup_ms", 0.0);
      r.checksum_ms = v.number_or("checksum_ms", 0.0);
      r.pool_hits =
          static_cast<std::uint64_t>(v.number_or("pool_hits", 0.0));
      r.cache_hits =
          static_cast<std::uint64_t>(v.number_or("cache_hits", 0.0));
      r.error = v.string_or("error", "");
      // Source only: a restored cell's counters were not observed by this
      // process, so values stay empty (no counter record re-lands in the
      // store) but the run metadata keeps an honest hwc_source.
      r.hwc.source = v.string_or("hwc_source", "");
      out[cell_key(r.kernel, r.variant, r.tuning_name)] = r;  // latest wins
    } catch (const std::exception&) {
      continue;  // unknown kernel/variant from an older build — re-run it
    }
  }
  return out;
}

std::map<std::string, int> Executor::load_crash_counts() const {
  std::map<std::string, int> out;
  const std::string path = crashes_path();
  if (path.empty() || !std::filesystem::exists(path)) return out;
  std::ifstream is(path);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::Value::parse(line);
    } catch (const json::JsonError&) {
      // Torn record from a run that died mid-append — same failure mode as
      // progress.jsonl. Warn and drop: the crash it described is not
      // counted, so quarantine errs toward re-running the cell.
      std::cerr << "warning: " << path << ":" << line_no
                << ": dropping truncated crash record; "
                   "quarantine counting stays conservative\n";
      continue;
    }
    try {
      if (v.string_or("kind", "crash") != "crash") continue;
      const std::string key =
          cell_key(v.at("kernel").as_string(),
                   variant_from_string(v.at("variant").as_string()),
                   v.at("tuning").as_string());
      ++out[key];
    } catch (const std::exception&) {
      continue;  // foreign record from an older build — not a crash count
    }
  }
  return out;
}

void Executor::run() {
  results_.clear();
  channels_.clear();
  crash_counts_.clear();
  sandbox_stats_ = SandboxStats{};
  pool_stats_ = sandbox::PoolStats{};
  degraded_ = false;
  main_trace_ = cali::TraceData{};
  worker_traces_.clear();
  run_wall_sec_ = 0.0;
  trace_overhead_pct_ = 0.0;
  hwc_reason_.clear();
  hwc_overhead_pct_ = 0.0;
  run_start_ = std::chrono::steady_clock::now();

  if (params_.hwc) {
    // One probe, one actionable warning. The result is cached, so every
    // later attach (including post-fork in workers, which inherit the
    // parent's perf access) sees the same answer without re-probing.
    const hwc::Probe& probe = hwc::cached_probe();
    if (!probe.available) {
      hwc_reason_ = probe.reason;
      std::cerr << "warning: hardware counters unavailable — "
                << probe.reason
                << "; counter metrics degrade to the simulator "
                   "(hwc_source=simulated)\n";
    }
  }

  cali::TraceSink& sink = cali::TraceSink::instance();
  if (params_.trace) sink.enable();

  // (Re)arm the process-wide injector from this run's params; an empty
  // spec disarms it, so consecutive in-process runs are self-contained.
  faults::injector().configure(params_.fault_spec, params_.fault_seed);

  // Fresh memory-subsystem counters so per-run metadata describes this
  // sweep only (the pool keeps its cached chunks — that reuse is the point).
  mem::pool().reset_stats();
  mem::data_cache().reset_stats();

  // The sweep plan: every (kernel, variant, tuning) cell passing filters.
  std::vector<Cell> cells;
  for (auto& kernel : kernels_) {
    for (VariantID vid : kernel->variants()) {
      if (!params_.wants_variant(vid)) continue;
      for (std::size_t tuning = 0; tuning < kernel->num_tunings();
           ++tuning) {
        if (!params_.run_tunings && tuning > 0) continue;
        cells.push_back(
            {kernel.get(), vid, tuning, kernel->tunings()[tuning]});
      }
    }
  }

  std::map<std::string, RunResult> prior;
  if (params_.resume) prior = load_progress();
  if (!params_.output_dir.empty()) {
    // Start a canonical checkpoint for this run; restored cells are
    // re-appended below, so the file always reflects the latest sweep.
    std::filesystem::create_directories(params_.output_dir);
    progress_buffer_.clear();
    std::ofstream(progress_path(), std::ios::trunc);
    if (params_.resume) {
      // Crash history survives resume so quarantine sticks.
      crash_counts_ = load_crash_counts();
    } else if (std::filesystem::exists(crashes_path())) {
      std::filesystem::remove(crashes_path());
    }
  }

  if (!params_.store_dir.empty()) {
    // Open (and if needed recover) the profile store, then land the run
    // under its content address. Store failures warn and disable — the
    // sweep itself must survive a broken disk.
    try {
      store_writer_ =
          std::make_unique<store::StoreWriter>(params_.store_dir);
      if (store_writer_->recovery().quarantined_bytes > 0) {
        std::cerr << "rperf-store: recovered torn journal tail ("
                  << store_writer_->recovery().quarantined_bytes
                  << " bytes quarantined to "
                  << store_writer_->recovery().quarantine_file << ")\n";
      }
      store_run_id_ = store_writer_->begin_run(store_config());
    } catch (const store::StoreError& e) {
      store_error_ = e.what();
      std::cerr << "warning: profile store disabled: " << e.what() << "\n";
      store_writer_.reset();
    }
  }

  {
    cali::TraceSpan sweep_span("sweep");
    if (params_.isolate == IsolationMode::None) {
      run_in_process(cells, prior);
    } else if (params_.workers > 0) {
      run_pooled(cells, prior);
    } else {
      run_sandboxed(cells, prior);
    }
  }

  run_wall_sec_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - run_start_)
                      .count();
  if (params_.trace && sink.enabled()) {
    main_trace_ = sink.flush();
    sink.disable();
    double overhead = main_trace_.overhead_sec;
    for (const cali::TraceData& t : worker_traces_) overhead += t.overhead_sec;
    trace_overhead_pct_ =
        run_wall_sec_ > 0.0 ? 100.0 * overhead / run_wall_sec_ : 0.0;
  }
  if (params_.hwc && run_wall_sec_ > 0.0) {
    double overhead = 0.0;
    for (const RunResult& r : results_) overhead += r.hwc.overhead_sec;
    hwc_overhead_pct_ = 100.0 * overhead / run_wall_sec_;
  }

  // Run-level metadata (the Adiak substitute), plus the failure taxonomy
  // of each (variant, tuning) slice of the sweep.
  const mem::PoolStats pool_stats = mem::pool().stats();
  const mem::CacheStats cache_stats = mem::data_cache().stats();
  for (auto& [key, channel] : channels_) {
    channel.set_metadata("variant", to_string(key.first));
    channel.set_metadata("tuning", key.second);
    channel.set_metadata("suite", "rajaperf-repro");
    channel.set_metadata("size_factor", params_.size_factor);
    if (!params_.fault_spec.empty()) {
      channel.set_metadata("fault_spec", params_.fault_spec);
      channel.set_metadata("fault_seed", std::to_string(params_.fault_seed));
    }
    if (params_.trace) {
      channel.set_metadata("trace_overhead_pct", trace_overhead_pct_);
    }
    if (params_.hwc) {
      // Slice-level source: every cell measured -> "measured", every cell
      // simulated -> "simulated", a mix (e.g. a mid-run PMU failure)
      // -> "mixed". Cells without a sample (failed before completing)
      // don't vote; an empty slice reports what the probe would give it.
      bool any_measured = false;
      bool any_simulated = false;
      for (const RunResult& r : results_) {
        if (r.variant != key.first || r.tuning_name != key.second) continue;
        if (r.hwc.source == "measured") any_measured = true;
        if (r.hwc.source == "simulated") any_simulated = true;
      }
      const char* source = "measured";
      if (any_measured && any_simulated) {
        source = "mixed";
      } else if (any_simulated || (!any_measured && !hwc_reason_.empty())) {
        source = "simulated";
      }
      channel.set_metadata("hwc_source", source);
      if (!hwc_reason_.empty()) {
        channel.set_metadata("hwc_unavailable_reason", hwc_reason_);
      }
      channel.set_metadata("hwc_overhead_pct", hwc_overhead_pct_);
    }
    std::map<RunStatus, std::size_t> counts;
    for (const auto& r : results_) {
      if (r.variant == key.first && r.tuning_name == key.second) {
        ++counts[r.status];
      }
    }
    channel.set_metadata("cells_passed",
                         std::to_string(counts[RunStatus::Passed]));
    channel.set_metadata("cells_failed",
                         std::to_string(counts[RunStatus::Failed]));
    channel.set_metadata(
        "cells_checksum_invalid",
        std::to_string(counts[RunStatus::ChecksumInvalid]));
    channel.set_metadata("cells_timed_out",
                         std::to_string(counts[RunStatus::TimedOut]));
    channel.set_metadata("cells_skipped",
                         std::to_string(counts[RunStatus::Skipped]));
    channel.set_metadata("cells_crashed",
                         std::to_string(counts[RunStatus::Crashed]));
    channel.set_metadata("cells_out_of_memory",
                         std::to_string(counts[RunStatus::OutOfMemory]));
    channel.set_metadata("cells_killed",
                         std::to_string(counts[RunStatus::Killed]));
    if (params_.isolate != IsolationMode::None) {
      // Sandbox accounting: worker count and aggregate rusage, so a
      // profile records what its isolation cost (process-wide, same in
      // every slice).
      channel.set_metadata("isolate", to_string(params_.isolate));
      channel.set_metadata("sandbox_children",
                           std::to_string(sandbox_stats_.children));
      channel.set_metadata("sandbox_peak_child_rss_kb",
                           std::to_string(sandbox_stats_.peak_rss_kb));
      channel.set_metadata("sandbox_child_user_sec", sandbox_stats_.user_sec);
      channel.set_metadata("sandbox_child_sys_sec", sandbox_stats_.sys_sec);
      if (params_.workers > 0) {
        // Worker-pool supervision summary (process-wide, same in every
        // slice): how many workers were spawned/recycled and why, so a
        // profile records what crash containment cost the sweep.
        channel.set_metadata("pool_workers", std::to_string(params_.workers));
        channel.set_metadata("pool_spawns",
                             std::to_string(pool_stats_.spawns));
        channel.set_metadata("pool_recycles",
                             std::to_string(pool_stats_.recycles));
        channel.set_metadata(
            "pool_heartbeat_timeouts",
            std::to_string(pool_stats_.heartbeat_timeouts));
        channel.set_metadata("pool_deadline_kills",
                             std::to_string(pool_stats_.deadline_kills));
        channel.set_metadata("pool_corrupt_frames",
                             std::to_string(pool_stats_.corrupt_frames));
        channel.set_metadata("pool_peak_queue_depth",
                             std::to_string(pool_stats_.peak_queue_depth));
        channel.set_metadata("sandbox_degraded", degraded_ ? "true" : "false");
        // Effective payload transport: "shm" only when every spawned
        // worker actually got a ring; a partial ring failure is "mixed",
        // a total one (or --transport json) is "json".
        const char* transport = "json";
        if (params_.shm_transport && pool_stats_.shm_spawns > 0) {
          transport = pool_stats_.ring_fallbacks > 0 ? "mixed" : "shm";
        }
        channel.set_metadata("sandbox_transport", transport);
        channel.set_metadata("pool_affinity_hits",
                             std::to_string(pool_stats_.affinity_hits));
        channel.set_metadata("pool_peak_measuring",
                             std::to_string(pool_stats_.peak_measuring));
        channel.set_metadata("pool_ring_messages",
                             std::to_string(pool_stats_.ring_messages));
        channel.set_metadata("pool_ring_payload_bytes",
                             std::to_string(pool_stats_.ring_payload_bytes));
        channel.set_metadata("pool_ring_fallbacks",
                             std::to_string(pool_stats_.ring_fallbacks));
      }
    }
    // Memory-subsystem summary: how much memory the sweep reserved and how
    // well setup amortized across cells (process-wide, same in every slice).
    channel.set_metadata("pool_bytes_reserved",
                         std::to_string(pool_stats.bytes_reserved()));
    channel.set_metadata("pool_high_water_bytes",
                         std::to_string(pool_stats.high_water_bytes));
    channel.set_metadata("pool_alloc_calls",
                         std::to_string(pool_stats.alloc_calls));
    channel.set_metadata("pool_reuse_hits",
                         std::to_string(pool_stats.reuse_hits));
    channel.set_metadata("cache_hits", std::to_string(cache_stats.hits));
    channel.set_metadata("cache_misses", std::to_string(cache_stats.misses));
    channel.set_metadata("cache_stored_bytes",
                         std::to_string(cache_stats.stored_bytes));
    for (const auto& [k, v] : params_.metadata) {
      channel.set_metadata(k, v);
    }
  }

  if (store_writer_) {
    // Land the per-variant profiles and the run's aggregate counters,
    // then seal the journal into an immutable segment. After this the
    // run is durable and queryable via rperf-report --store.
    try {
      for (const auto& [key, channel] : channels_) {
        store_writer_->add_profile(to_string(key.first), key.second,
                                   cali::to_profile(channel));
      }
      std::map<std::string, double> summary;
      summary["wall_sec"] = run_wall_sec_;
      summary["cells"] = static_cast<double>(results_.size());
      summary["trace_overhead_pct"] = trace_overhead_pct_;
      summary["fault_fires"] =
          static_cast<double>(faults::injector().fires());
      // Observed, so it lands here rather than in the run header: the
      // header is the run's content address and is written before any
      // cell runs.
      if (params_.isolate != IsolationMode::None && params_.workers > 0) {
        summary["pool_peak_measuring"] =
            static_cast<double>(pool_stats_.peak_measuring);
      }
      store_writer_->add_trace_summary(summary);
      store_writer_->finish_run();
      // Seal summary on stderr: which segment the run landed in and
      // whether its query index (footer + manifest) made it to disk.
      // Index failures are fail-open — queries fall back to full scans
      // — so this is a warning, never a disabled store.
      const store::SealInfo& seal = store_writer_->last_seal();
      if (!seal.segment.empty()) {
        std::cerr << "rperf-store: sealed " << seal.segment << " ("
                  << seal.runs_indexed << " run(s) indexed, footer "
                  << seal.footer_bytes << " bytes, manifest "
                  << seal.manifest_runs << " run(s))\n";
        if (!seal.footer_ok || !seal.manifest_ok) {
          std::cerr << "warning: store index degraded (queries fall back "
                       "to full scans): "
                    << seal.index_error << "\n";
        }
      }
    } catch (const store::StoreError& e) {
      store_error_ = e.what();
      std::cerr << "warning: profile store disabled: " << e.what() << "\n";
      store_writer_.reset();
    }
  }
}

std::string Executor::hwc_source() const {
  bool any_measured = false;
  bool any_simulated = false;
  for (const RunResult& r : results_) {
    if (r.hwc.source == "measured") any_measured = true;
    if (r.hwc.source == "simulated") any_simulated = true;
  }
  if (any_measured && any_simulated) return "mixed";
  if (any_measured) return "measured";
  if (any_simulated) return "simulated";
  return "";
}

void Executor::run_in_process(const std::vector<Cell>& cells,
                              const std::map<std::string, RunResult>& prior) {
  bool stopped = false;
  for (const Cell& cell : cells) {
    RunResult r;
    r.kernel = cell.kernel->name();
    r.group = cell.kernel->group();
    r.variant = cell.vid;
    r.tuning = cell.tuning;
    r.tuning_name = cell.tuning_name;

    if (stopped) {
      r.status = RunStatus::Skipped;
      r.error = "sweep stopped by --no-keep-going after an earlier failure";
      results_.push_back(r);
      append_progress(r);
      continue;
    }
    if (const int isig = sandbox::interrupt_signal(); isig != 0) {
      r.status = RunStatus::Skipped;
      r.error = "interrupted by " + sandbox::signal_name(isig) +
                "; checkpoint flushed";
      results_.push_back(r);
      append_progress(r);
      continue;
    }

    const auto it = prior.find(cell_key(r.kernel, r.variant, r.tuning_name));
    if (it != prior.end() && it->second.status == RunStatus::Passed) {
      r = it->second;
      r.group = cell.kernel->group();
      r.tuning = cell.tuning;
      r.restored = true;
      cell.kernel->restore_result(cell.vid, cell.tuning, r.time_per_rep_sec,
                                  r.checksum);
      results_.push_back(r);
      append_progress(r);
      continue;
    }

    // Guarded execution with retry-with-backoff. The cell runs into a
    // scratch channel committed to the per-variant profile only on a pass,
    // so failed cells never leave partial regions in the output.
    for (int attempt = 0; attempt <= params_.retries; ++attempt) {
      if (attempt > 0 && params_.retry_backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            params_.retry_backoff_ms << (attempt - 1)));
      }
      cali::Channel scratch;
      r.attempts = attempt + 1;
      {
        cali::TraceSpan cell_span(
            cell_span_name(r.kernel, cell.vid, cell.tuning_name));
        r.status = run_cell_once(cell, scratch, r);
      }
      if (r.status == RunStatus::Passed) {
        channels_[{cell.vid, cell.tuning_name}].merge(scratch);
        break;
      }
      // A budget violation is deterministic; retrying only doubles the
      // damage. Failures and corrupt checksums may be transient.
      if (r.status == RunStatus::TimedOut) break;
    }
    sample_trace_counters();
    results_.push_back(r);
    append_progress(r);
    if (r.status != RunStatus::Passed && !params_.keep_going) stopped = true;
  }
}

void Executor::worker_main(int fd, const std::vector<const Cell*>& batch) {
  // The fork inherited the parent's buffers and epoch; drop the records
  // (the parent reports them) and re-zero onto a local clock, keeping the
  // fork-time offset so the parent can splice this chunk onto its timeline.
  cali::TraceSink& sink = cali::TraceSink::instance();
  if (sink.enabled()) sink.rezero_after_fork("rperf-worker");
  {
    json::Object hello;
    hello["type"] = "hello";
    hello["proto"] = sandbox::kProtocolVersion;
    hello["pid"] = static_cast<std::int64_t>(::getpid());
    write_json_line(fd, std::move(hello));
  }
  for (const Cell* cell : batch) {
    RunResult r;
    r.kernel = cell->kernel->name();
    r.variant = cell->vid;
    r.tuning = cell->tuning;
    r.tuning_name = cell->tuning_name;
    cali::Channel scratch;
    {
      cali::TraceSpan cell_span(
          cell_span_name(r.kernel, cell->vid, cell->tuning_name));
      r.status = run_cell_once(*cell, scratch, r);
    }
    sample_trace_counters();

    json::Object o;
    o["type"] = "cell";
    o["kernel"] = r.kernel;
    o["variant"] = to_string(r.variant);
    o["tuning"] = r.tuning_name;
    o["status"] = to_string(r.status);
    o["time_per_rep_sec"] = r.time_per_rep_sec;
    o["checksum"] = static_cast<double>(r.checksum);
    o["checksum_hex"] = sandbox::checksum_to_hex(r.checksum);
    o["problem_size"] = static_cast<std::int64_t>(r.problem_size);
    o["reps"] = static_cast<std::int64_t>(r.reps);
    o["setup_ms"] = r.setup_ms;
    o["checksum_ms"] = r.checksum_ms;
    o["pool_hits"] = static_cast<std::int64_t>(r.pool_hits);
    o["cache_hits"] = static_cast<std::int64_t>(r.cache_hits);
    hwc_to_json(r.hwc, o);
    if (!r.error.empty()) o["error"] = r.error;
    if (r.status == RunStatus::Passed) {
      // The parent only commits passing cells' regions, so only those
      // cross the pipe.
      o["profile"] = cali::profile_to_value(cali::to_profile(scratch));
    }
    write_json_line(fd, std::move(o));
  }
  if (sink.enabled()) {
    // Stream this worker's trace chunk before bye. Parents predating the
    // "trace" record type ignore unknown types, so the protocol version
    // holds at v1.
    json::Object tr;
    tr["type"] = "trace";
    tr["data"] = sink.flush().to_value();
    write_json_line(fd, std::move(tr));
  }
  {
    json::Object bye;
    bye["type"] = "bye";
    bye["injector"] = faults::injector().serialize_state();
    write_json_line(fd, std::move(bye));
  }
}

void Executor::run_sandboxed(const std::vector<Cell>& cells,
                             const std::map<std::string, RunResult>& prior) {
  // Worker granularity: one group of cells per worker. Cells are generated
  // kernel-major, so Kernel mode groups consecutive cells per kernel.
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t b = 0; b < cells.size();) {
    std::size_t e = b + 1;
    if (params_.isolate == IsolationMode::Kernel) {
      while (e < cells.size() && cells[e].kernel == cells[b].kernel) ++e;
    }
    groups.emplace_back(b, e);
    b = e;
  }

  struct Pending {
    const Cell* cell = nullptr;
    RunResult r;
    int attempts = 0;  // executions consumed (parent-authoritative)
  };

  bool stopped = false;
  auto finalize = [&](RunResult& r) {
    sample_trace_counters();
    results_.push_back(r);
    append_progress(r);
    if (r.status != RunStatus::Passed && r.status != RunStatus::Skipped &&
        !params_.keep_going) {
      stopped = true;
    }
  };
  auto append_crash_line = [&](json::Object o) {
    const std::string path = crashes_path();
    if (path.empty()) return;
    o["t_ms"] = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - run_start_)
                    .count();
    std::ofstream os(path, std::ios::app);
    if (!os) return;  // forensics are best-effort; the sweep continues
    std::string line = json::Value(std::move(o)).dump();
    line.push_back('\n');
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
  };

  for (const auto& [gb, ge] : groups) {
    // Resolve restores, quarantine, and stop/interrupt skips in the parent;
    // what remains is this group's worklist.
    std::vector<Pending> work;
    for (std::size_t i = gb; i < ge; ++i) {
      const Cell& cell = cells[i];
      RunResult r;
      r.kernel = cell.kernel->name();
      r.group = cell.kernel->group();
      r.variant = cell.vid;
      r.tuning = cell.tuning;
      r.tuning_name = cell.tuning_name;

      if (stopped) {
        r.status = RunStatus::Skipped;
        r.error = "sweep stopped by --no-keep-going after an earlier failure";
        finalize(r);
        continue;
      }
      if (const int isig = sandbox::interrupt_signal(); isig != 0) {
        r.status = RunStatus::Skipped;
        r.error = "interrupted by " + sandbox::signal_name(isig) +
                  "; checkpoint flushed";
        finalize(r);
        continue;
      }
      const std::string key = cell_key(r.kernel, r.variant, r.tuning_name);
      const auto it = prior.find(key);
      if (it != prior.end() && it->second.status == RunStatus::Passed) {
        r = it->second;
        r.group = cell.kernel->group();
        r.tuning = cell.tuning;
        r.restored = true;
        cell.kernel->restore_result(cell.vid, cell.tuning,
                                    r.time_per_rep_sec, r.checksum);
        finalize(r);
        continue;
      }
      const auto qc = crash_counts_.find(key);
      if (qc != crash_counts_.end() &&
          qc->second >= params_.quarantine_after) {
        r.status = RunStatus::Skipped;
        r.error = "quarantined after " + std::to_string(qc->second) +
                  " crashes; see crashes.jsonl";
        json::Object o;
        o["kind"] = "quarantine-skip";
        o["kernel"] = r.kernel;
        o["variant"] = to_string(r.variant);
        o["tuning"] = r.tuning_name;
        o["crashes"] = qc->second;
        append_crash_line(std::move(o));
        finalize(r);
        continue;
      }
      Pending p;
      p.cell = &cell;
      p.r = std::move(r);
      work.push_back(std::move(p));
    }

    // Spawn workers until the worklist drains. Each pass re-runs what the
    // previous worker did not finish (crash) plus any retry-eligible cells.
    while (!work.empty()) {
      if (stopped || sandbox::interrupt_signal() != 0) {
        const int isig = sandbox::interrupt_signal();
        for (auto& p : work) {
          p.r.status = RunStatus::Skipped;
          p.r.error =
              stopped
                  ? "sweep stopped by --no-keep-going after an earlier failure"
                  : "interrupted by " + sandbox::signal_name(isig) +
                        "; checkpoint flushed";
          finalize(p.r);
        }
        break;
      }

      sandbox::Limits limits;
      limits.address_space_bytes = params_.sandbox_mem_mb << 20;
      limits.cpu_seconds = params_.sandbox_cpu_seconds;
      if (params_.max_cell_seconds > 0.0) {
        limits.wall_deadline_sec =
            params_.max_cell_seconds * static_cast<double>(work.size());
      }

      std::vector<const Cell*> batch;
      batch.reserve(work.size());
      for (const auto& p : work) batch.push_back(p.cell);

      const sandbox::WorkerReport rep = [&] {
        // Parent-side span covering the worker's whole lifetime, so the
        // timeline shows fork/wait cost around the worker's own spans.
        cali::TraceSpan worker_span("worker");
        return sandbox::run_worker([&](int fd) { worker_main(fd, batch); },
                                   limits);
      }();
      ++sandbox_stats_.children;
      sandbox_stats_.peak_rss_kb =
          std::max(sandbox_stats_.peak_rss_kb, rep.usage.max_rss_kb);
      sandbox_stats_.user_sec += rep.usage.user_sec;
      sandbox_stats_.sys_sec += rep.usage.sys_sec;
#ifdef RPERF_SANDBOX_DIAG
      std::fprintf(stderr,
                   "[sandbox] worker done: cells=%zu %s rss=%ldkb "
                   "user=%.3fs sys=%.3fs wall=%.3fs\n",
                   batch.size(), rep.describe().c_str(), rep.usage.max_rss_kb,
                   rep.usage.user_sec, rep.usage.sys_sec, rep.wall_sec);
#endif

      // Fold the worker's records back, in worklist order.
      std::size_t idx = 0;
      bool proto_ok = true;
      std::vector<Pending> requeue;
      for (const std::string& line : rep.lines) {
        json::Value v;
        try {
          v = json::Value::parse(line);
        } catch (const json::JsonError&) {
          continue;  // torn line right at the crash point
        }
        const std::string type = v.string_or("type", "");
        if (type == "hello") {
          if (static_cast<int>(v.number_or("proto", 0.0)) !=
              sandbox::kProtocolVersion) {
            proto_ok = false;
            break;
          }
        } else if (type == "cell" && idx < work.size()) {
          Pending& p = work[idx++];
          ++p.attempts;
          try {
            decode_cell_record(v, p.r);
          } catch (const std::exception& e) {
            p.r.status = RunStatus::Crashed;
            p.r.error = std::string("malformed worker record: ") + e.what();
          }
          p.r.attempts = p.attempts;
          if (p.r.status == RunStatus::Passed) {
            if (v.contains("profile")) {
              const cali::Channel scratch = cali::channel_from_profile(
                  cali::profile_from_value(v.at("profile")));
              channels_[{p.cell->vid, p.cell->tuning_name}].merge(scratch);
            }
            p.cell->kernel->restore_result(p.cell->vid, p.cell->tuning,
                                           p.r.time_per_rep_sec, p.r.checksum);
            finalize(p.r);
          } else if ((p.r.status == RunStatus::Failed ||
                      p.r.status == RunStatus::ChecksumInvalid) &&
                     p.attempts <= params_.retries && !stopped) {
            if (params_.retry_backoff_ms > 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(
                  params_.retry_backoff_ms << (p.attempts - 1)));
            }
            requeue.push_back(std::move(p));
          } else {
            finalize(p.r);
          }
        } else if (type == "trace") {
          try {
            worker_traces_.push_back(
                cali::TraceData::from_value(v.at("data")));
          } catch (const std::exception&) {
            // Malformed chunk: the timeline loses one worker's spans; the
            // sweep's results are unaffected.
          }
        } else if (type == "bye") {
          // Fold the worker's fault-budget consumption and rng progress
          // back, so the sweep's fault schedule is worker-count invariant.
          faults::injector().deserialize_state(v.string_or("injector", ""));
        }
      }

      // A worker that terminated with cells unreported died on the first
      // one: decode its death into that cell's status and record forensics.
      const bool worker_failed =
          !rep.clean() || !proto_ok || idx < work.size();
      if (worker_failed && idx < work.size()) {
        Pending& p = work[idx++];
        ++p.attempts;
        p.r.attempts = p.attempts;
        if (proto_ok) {
          decode_worker_failure(rep, params_.sandbox_mem_mb, p.r);
        } else {
          p.r.status = RunStatus::Crashed;
          p.r.error = "worker spoke an unknown protocol version";
        }
        const std::string key =
            cell_key(p.r.kernel, p.r.variant, p.r.tuning_name);
        const int crashes = ++crash_counts_[key];
        const bool quarantined = crashes >= params_.quarantine_after;

        json::Object o;
        o["kind"] = "crash";
        o["kernel"] = p.r.kernel;
        o["variant"] = to_string(p.r.variant);
        o["tuning"] = p.r.tuning_name;
        o["status"] = to_string(p.r.status);
        o["crashes"] = crashes;
        o["attempts"] = p.attempts;
        o["exit_code"] = rep.exit_code;
        o["deadline_killed"] =
            rep.exit == sandbox::WorkerExit::DeadlineKilled;
        if (rep.signal != 0) {
          o["signal"] = rep.signal;
          o["signal_name"] = sandbox::signal_name(rep.signal);
        }
        o["error"] = p.r.error;
        if (!rep.stderr_tail.empty()) o["stderr_tail"] = rep.stderr_tail;
        o["max_rss_kb"] = static_cast<std::int64_t>(rep.usage.max_rss_kb);
        o["user_sec"] = rep.usage.user_sec;
        o["sys_sec"] = rep.usage.sys_sec;
        o["wall_sec"] = rep.wall_sec;
        o["quarantined"] = quarantined;
        append_crash_line(std::move(o));

        // The worker died before reporting, so its injector state is lost;
        // consume the budget the fatal fault definitionally spent.
        if (faults::injector().active()) {
          if (const auto kind = implied_fault_kind(p.r, rep.signal)) {
            faults::injector().note_external_fire(*kind, p.r.kernel);
          }
        }

        const bool retryable = p.r.status == RunStatus::Crashed ||
                               p.r.status == RunStatus::OutOfMemory;
        if (retryable && !quarantined && p.attempts <= params_.retries &&
            !stopped) {
          if (params_.retry_backoff_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                params_.retry_backoff_ms << (p.attempts - 1)));
          }
          requeue.push_back(std::move(p));
        } else {
          finalize(p.r);
        }
      }

      // Cells the dead worker never reached go back on the worklist
      // without consuming an attempt.
      for (std::size_t j = idx; j < work.size(); ++j) {
        requeue.push_back(std::move(work[j]));
      }
      work = std::move(requeue);
    }
  }
}

std::string Executor::worker_run_cell(const std::string& payload) {
  const json::Value v = json::Value::parse(payload);
  const std::string kname = v.at("kernel").as_string();
  // The job carries the parent's injector state as of dispatch time, so a
  // retried cell sees spent budgets instead of re-firing the fault that
  // killed its first worker.
  faults::injector().deserialize_state(v.string_or("injector", ""));

  // Wire fault: go silent. The heartbeat thread stops beating and the job
  // never completes — from the supervisor's seat, a wedged worker.
  if (faults::injector().fire_wire_fault(faults::FaultKind::HeartbeatDrop,
                                         kname)) {
    sandbox::WorkerPool::suppress_heartbeats();
    for (int i = 0; i < 6000; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::_Exit(1);  // safety valve; the supervisor kills us long before
  }

  RunResult r;
  r.kernel = kname;
  r.variant = variant_from_string(v.at("variant").as_string());
  r.tuning = static_cast<std::size_t>(v.number_or("tuning_index", 0.0));
  r.tuning_name = v.string_or("tuning", "default");

  std::optional<cali::Profile> profile;
  KernelBase* kernel = find_kernel(kname);
  if (kernel == nullptr) {
    r.status = RunStatus::Failed;
    r.error = "unknown kernel in job payload: " + kname;
  } else {
    const Cell cell{kernel, r.variant, r.tuning, r.tuning_name};
    cali::Channel scratch;
    {
      cali::TraceSpan cell_span(
          cell_span_name(r.kernel, r.variant, r.tuning_name));
      r.status = run_cell_once(cell, scratch, r);
    }
    // setUp, the timed loop, the checksum and tearDown ran alone; what
    // follows (profile, encode, transfer) may overlap the next cell. Stop
    // this worker's OpenMP team first: libgomp's idle threads spin for a
    // few ms after each parallel region, and spinning here would run
    // through the next cell's measurement in another worker.
    omp_pause_resource_all(omp_pause_soft);
    sandbox::WorkerPool::mark_measured();
    sample_trace_counters();
    if (r.status == RunStatus::Passed) {
      profile = cali::to_profile(scratch);
    }
  }

  // Post-job injector state rides back on every result so the parent's
  // fault schedule stays worker-count invariant (same fold as v1 "bye",
  // but per job since this worker may die before any orderly goodbye).
  const std::string injector_state = faults::injector().serialize_state();

  // Wire fault: torn result. Under the Json transport the frame goes out
  // with a bad CRC; under Shm the next ring chunk's sequence stamp is
  // mangled. Either way the supervisor must reject the record and recycle
  // this worker rather than mis-parse it.
  if (faults::injector().fire_wire_fault(faults::FaultKind::ProtocolCorrupt,
                                         kname)) {
    sandbox::WorkerPool::corrupt_next_frame();
  }

  if (sandbox::WorkerPool::current_transport() == sandbox::Transport::Shm) {
    return encode_cell_record_wire(r, injector_state,
                                   profile ? &*profile : nullptr);
  }

  json::Object o;
  if (profile) o["profile"] = cali::profile_to_value(*profile);
  o["status"] = to_string(r.status);
  o["time_per_rep_sec"] = r.time_per_rep_sec;
  o["checksum"] = static_cast<double>(r.checksum);
  o["checksum_hex"] = sandbox::checksum_to_hex(r.checksum);
  o["problem_size"] = static_cast<std::int64_t>(r.problem_size);
  o["reps"] = static_cast<std::int64_t>(r.reps);
  o["setup_ms"] = r.setup_ms;
  o["checksum_ms"] = r.checksum_ms;
  o["pool_hits"] = static_cast<std::int64_t>(r.pool_hits);
  o["cache_hits"] = static_cast<std::int64_t>(r.cache_hits);
  hwc_to_json(r.hwc, o);
  if (!r.error.empty()) o["error"] = r.error;
  o["injector"] = injector_state;
  return json::Value(std::move(o)).dump();
}

void Executor::run_pooled(const std::vector<Cell>& cells,
                          const std::map<std::string, RunResult>& prior) {
  // Pooled dispatch is always per-cell: one job per (kernel, variant,
  // tuning), pulled by the supervisor as queue room opens up.
  struct PooledJob {
    const Cell* cell = nullptr;
    RunResult r;
    int attempts = 0;  // executions consumed (parent-authoritative)
    bool done = false;
  };

  bool stopped = false;
  auto finalize = [&](RunResult& r) {
    sample_trace_counters();
    results_.push_back(r);
    append_progress(r);
    if (r.status != RunStatus::Passed && r.status != RunStatus::Skipped &&
        !params_.keep_going) {
      stopped = true;
    }
  };
  auto append_crash_line = [&](json::Object o) {
    const std::string path = crashes_path();
    if (path.empty()) return;
    o["t_ms"] = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - run_start_)
                    .count();
    std::ofstream os(path, std::ios::app);
    if (!os) return;  // forensics are best-effort; the sweep continues
    std::string line = json::Value(std::move(o)).dump();
    line.push_back('\n');
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
  };

  // Resolve restores, quarantine, and interrupt skips up front; what
  // remains becomes the pool's job list.
  std::vector<PooledJob> jobs;
  for (const Cell& cell : cells) {
    RunResult r;
    r.kernel = cell.kernel->name();
    r.group = cell.kernel->group();
    r.variant = cell.vid;
    r.tuning = cell.tuning;
    r.tuning_name = cell.tuning_name;

    if (const int isig = sandbox::interrupt_signal(); isig != 0) {
      r.status = RunStatus::Skipped;
      r.error = "interrupted by " + sandbox::signal_name(isig) +
                "; checkpoint flushed";
      finalize(r);
      continue;
    }
    const std::string key = cell_key(r.kernel, r.variant, r.tuning_name);
    const auto it = prior.find(key);
    if (it != prior.end() && it->second.status == RunStatus::Passed) {
      r = it->second;
      r.group = cell.kernel->group();
      r.tuning = cell.tuning;
      r.restored = true;
      cell.kernel->restore_result(cell.vid, cell.tuning, r.time_per_rep_sec,
                                  r.checksum);
      finalize(r);
      continue;
    }
    const auto qc = crash_counts_.find(key);
    if (qc != crash_counts_.end() && qc->second >= params_.quarantine_after) {
      r.status = RunStatus::Skipped;
      r.error = "quarantined after " + std::to_string(qc->second) +
                " crashes; see crashes.jsonl";
      json::Object o;
      o["kind"] = "quarantine-skip";
      o["kernel"] = r.kernel;
      o["variant"] = to_string(r.variant);
      o["tuning"] = r.tuning_name;
      o["crashes"] = qc->second;
      append_crash_line(std::move(o));
      finalize(r);
      continue;
    }
    PooledJob p;
    p.cell = &cell;
    p.r = std::move(r);
    jobs.push_back(std::move(p));
  }

  sandbox::PoolClient client;
  client.on_worker_start = [] {
    cali::TraceSink& sink = cali::TraceSink::instance();
    if (sink.enabled()) sink.rezero_after_fork("rperf-pool-worker");
  };
  client.run_job = [this](const std::string& payload) {
    return worker_run_cell(payload);
  };
  client.final_payload = [] {
    cali::TraceSink& sink = cali::TraceSink::instance();
    if (!sink.enabled()) return std::string();
    if (sandbox::WorkerPool::current_transport() ==
        sandbox::Transport::Shm) {
      wire::Writer w;
      w.begin_blob();
      cali::trace_to_wire(sink.flush(), w);
      return w.take();
    }
    json::Object o;
    o["trace"] = sink.flush().to_value();
    return json::Value(std::move(o)).dump();
  };
  client.on_final = [this](const std::string& payload) {
    if (payload.empty()) return;
    try {
      if (wire::is_wire_blob(payload)) {
        wire::Reader rd(payload);
        rd.expect_blob();
        worker_traces_.push_back(cali::trace_from_wire(rd));
        return;
      }
      const json::Value v = json::Value::parse(payload);
      if (v.contains("trace")) {
        worker_traces_.push_back(cali::TraceData::from_value(v.at("trace")));
      }
    } catch (const std::exception&) {
      // Malformed chunk: the timeline loses one worker's spans; the
      // sweep's results are unaffected.
    }
  };
  client.before_dispatch = [&](sandbox::Job& job) {
    const PooledJob& p = jobs[job.id];
    json::Object o;
    o["kernel"] = p.r.kernel;
    o["variant"] = to_string(p.r.variant);
    o["tuning_index"] = static_cast<std::int64_t>(p.cell->tuning);
    o["tuning"] = p.r.tuning_name;
    // Current state, captured at dispatch — not enqueue — time, so a retry
    // after a fatal fire carries the decremented budget.
    o["injector"] = faults::injector().serialize_state();
    job.payload = json::Value(std::move(o)).dump();
  };
  client.on_result = [&](const sandbox::Job& job,
                         const std::string& result) -> sandbox::Disposition {
    PooledJob& p = jobs[job.id];
    ++p.attempts;
    p.r.attempts = p.attempts;
    try {
      std::optional<cali::Profile> profile;
      if (wire::is_wire_blob(result)) {
        // v3 binary record: fixed-width fields, checksum as raw
        // long-double bits, profile merged without a JSON round-trip.
        std::string injector_state;
        decode_cell_record_wire(result, p.r, injector_state, profile);
        faults::injector().deserialize_state(injector_state);
      } else {
        const json::Value v = json::Value::parse(result);
        decode_cell_record(v, p.r);
        faults::injector().deserialize_state(v.string_or("injector", ""));
        if (v.contains("profile")) {
          profile = cali::profile_from_value(v.at("profile"));
        }
      }
      if (p.r.status == RunStatus::Passed) {
        if (profile) {
          const cali::Channel scratch = cali::channel_from_profile(*profile);
          channels_[{p.cell->vid, p.cell->tuning_name}].merge(scratch);
        }
        p.cell->kernel->restore_result(p.cell->vid, p.cell->tuning,
                                       p.r.time_per_rep_sec, p.r.checksum);
      }
    } catch (const std::exception& e) {
      p.r.status = RunStatus::Crashed;
      p.r.error = std::string("malformed worker record: ") + e.what();
    }
    if ((p.r.status == RunStatus::Failed ||
         p.r.status == RunStatus::ChecksumInvalid) &&
        p.attempts <= params_.retries && !stopped) {
      if (params_.retry_backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            params_.retry_backoff_ms << (p.attempts - 1)));
      }
      return sandbox::Disposition::Retry;
    }
    finalize(p.r);
    p.done = true;
    return stopped ? sandbox::Disposition::Abort : sandbox::Disposition::Done;
  };
  client.on_failure = [&](const sandbox::Job& job,
                          const sandbox::JobFailure& f)
      -> sandbox::Disposition {
    PooledJob& p = jobs[job.id];
    ++p.attempts;
    p.r.attempts = p.attempts;
    switch (f.reason) {
      case sandbox::FailReason::DeadlineKilled:
        p.r.status = RunStatus::Killed;
        p.r.error = "worker killed past the per-cell wall deadline";
        break;
      case sandbox::FailReason::HeartbeatTimeout:
      case sandbox::FailReason::ProtocolCorrupt:
        p.r.status = RunStatus::Crashed;
        p.r.error = f.describe();
        break;
      case sandbox::FailReason::WorkerDied: {
        // Reuse the fork-per-batch classifier by reconstructing its report.
        sandbox::WorkerReport rep;
        if (f.exited) {
          rep.exit_code = f.exit_code;
          rep.exit = f.exit_code == sandbox::kOomExitCode
                         ? sandbox::WorkerExit::OomExit
                         : f.exit_code == 0 ? sandbox::WorkerExit::CleanExit
                                            : sandbox::WorkerExit::NonzeroExit;
        } else {
          rep.exit = sandbox::WorkerExit::Signaled;
          rep.signal = f.signal;
        }
        rep.usage = f.usage;
        rep.stderr_tail = f.stderr_tail;
        decode_worker_failure(rep, params_.sandbox_mem_mb, p.r);
        break;
      }
    }

    const std::string key = cell_key(p.r.kernel, p.r.variant, p.r.tuning_name);
    const int crashes = ++crash_counts_[key];
    const bool quarantined = crashes >= params_.quarantine_after;

    json::Object o;
    o["kind"] = "crash";
    o["kernel"] = p.r.kernel;
    o["variant"] = to_string(p.r.variant);
    o["tuning"] = p.r.tuning_name;
    o["status"] = to_string(p.r.status);
    o["reason"] = sandbox::to_string(f.reason);
    o["crashes"] = crashes;
    o["attempts"] = p.attempts;
    o["exit_code"] = f.exit_code;
    o["deadline_killed"] = f.reason == sandbox::FailReason::DeadlineKilled;
    if (!f.exited && f.signal != 0) {
      o["signal"] = f.signal;
      o["signal_name"] = sandbox::signal_name(f.signal);
    }
    o["error"] = p.r.error;
    if (!f.stderr_tail.empty()) o["stderr_tail"] = f.stderr_tail;
    o["max_rss_kb"] = static_cast<std::int64_t>(f.usage.max_rss_kb);
    o["user_sec"] = f.usage.user_sec;
    o["sys_sec"] = f.usage.sys_sec;
    o["quarantined"] = quarantined;
    append_crash_line(std::move(o));

    // The worker died before reporting, so its injector state is lost;
    // consume the budget the fatal fault definitionally spent. The wire
    // kinds imply themselves; process deaths imply segv/abort/oom/hang.
    if (faults::injector().active()) {
      if (f.reason == sandbox::FailReason::HeartbeatTimeout) {
        faults::injector().note_external_fire(faults::FaultKind::HeartbeatDrop,
                                              p.r.kernel);
      } else if (f.reason == sandbox::FailReason::ProtocolCorrupt) {
        faults::injector().note_external_fire(
            faults::FaultKind::ProtocolCorrupt, p.r.kernel);
      } else if (const auto kind = implied_fault_kind(p.r, f.signal)) {
        faults::injector().note_external_fire(*kind, p.r.kernel);
      }
    }

    const bool retryable = p.r.status == RunStatus::Crashed ||
                           p.r.status == RunStatus::OutOfMemory;
    if (retryable && !quarantined && p.attempts <= params_.retries &&
        !stopped) {
      if (params_.retry_backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            params_.retry_backoff_ms << (p.attempts - 1)));
      }
      return sandbox::Disposition::Retry;
    }
    finalize(p.r);
    p.done = true;
    return stopped ? sandbox::Disposition::Abort : sandbox::Disposition::Done;
  };

  sandbox::PoolConfig cfg;
  cfg.workers = params_.workers;
  cfg.heartbeat_interval_ms = params_.heartbeat_interval_ms;
  cfg.heartbeat_timeout_ms = params_.heartbeat_timeout_ms;
  cfg.job_deadline_sec = params_.max_cell_seconds;
  cfg.limits.address_space_bytes = params_.sandbox_mem_mb << 20;
  // cfg.limits.cpu_seconds stays 0: RLIMIT_CPU accrues across a pooled
  // worker's whole life and would misfire mid-sweep (see PoolConfig).
  cfg.transport = params_.shm_transport ? sandbox::Transport::Shm
                                        : sandbox::Transport::Json;
  // Affinity dispatch scans the pending queue for unclaimed keys, so give
  // it a window wider than the default 2x workers: enough to see past one
  // kernel's contiguous (variant, tuning) cells to the next kernel.
  cfg.queue_capacity = static_cast<std::size_t>(params_.workers) * 8;
  // One measure slot: each cell's setUp, timed loop, checksum and
  // tearDown run alone on the machine (OpenMP cells start all-core teams,
  // Stream cells saturate DRAM), while the previous cell's profile,
  // encode, transfer and store append overlap them. The other workers
  // hold warm dataset-cache partitions and serve as crash-containment
  // spares. Trade-off: a hung cell stalls the sweep until
  // --max-cell-seconds (or the heartbeat timeout) frees the slot.
  cfg.max_inflight = 1;

  // Seed the wire dictionary before the pool forks: every worker inherits
  // the sweep's vocabulary (statuses, kernel/region names, metric keys) by
  // memory image, so v3 records encode them as fixed-width refs with no
  // per-blob definitions — Caliper's "attributes established at hello
  // time", done by fork inheritance instead of a handshake.
  if (params_.shm_transport) {
    wire::Dictionary& d = wire::dict();
    for (const RunStatus s :
         {RunStatus::Passed, RunStatus::Failed, RunStatus::ChecksumInvalid,
          RunStatus::TimedOut, RunStatus::Skipped, RunStatus::Crashed,
          RunStatus::OutOfMemory, RunStatus::Killed}) {
      d.intern(to_string(s));
    }
    for (const char* metric :
         {"reps", "bytes_read", "bytes_written", "flops", "problem_size"}) {
      d.intern(metric);
    }
    if (params_.hwc) {
      for (const std::string& name : hwc::papi_event_names()) d.intern(name);
      d.intern("measured");
      d.intern("simulated");
    }
    for (const PooledJob& p : jobs) {
      d.intern(p.r.kernel);
      d.intern(to_string(p.cell->vid));
      d.intern(p.r.tuning_name);
    }
  }

  std::size_t next = 0;
  const auto source = [&]() -> std::optional<sandbox::Job> {
    if (stopped) return std::nullopt;
    if (next >= jobs.size()) return std::nullopt;
    sandbox::Job job;
    // Cells of one kernel share a dispatch-affinity key, steering them to
    // the worker whose dataset cache that kernel already warmed.
    job.affinity = affinity_key(jobs[next].r.kernel);
    job.id = next++;
    return job;  // payload is filled by before_dispatch
  };

  sandbox::PoolOutcome outcome = sandbox::PoolOutcome::Completed;
  sandbox::WorkerPool pool(cfg, client);
  if (!jobs.empty()) {
    cali::TraceSpan pool_span("worker-pool");
    outcome = pool.run(source);
  }
  pool_stats_ = pool.stats();
  sandbox_stats_.children = pool_stats_.spawns;
  sandbox_stats_.peak_rss_kb = pool_stats_.peak_rss_kb;
  sandbox_stats_.user_sec = pool_stats_.child_user_sec;
  sandbox_stats_.sys_sec = pool_stats_.child_sys_sec;
#ifdef RPERF_SANDBOX_DIAG
  std::fprintf(stderr,
               "[sandbox] pool done: spawns=%zu recycles=%zu hb_timeouts=%zu "
               "deadline_kills=%zu corrupt=%zu jobs=%zu/%zu\n",
               pool_stats_.spawns, pool_stats_.recycles,
               pool_stats_.heartbeat_timeouts, pool_stats_.deadline_kills,
               pool_stats_.corrupt_frames, pool_stats_.jobs_completed,
               pool_stats_.jobs_dispatched);
#endif

  if (outcome == sandbox::PoolOutcome::SpawnFailed && !stopped &&
      sandbox::interrupt_signal() == 0) {
    // Graceful degradation: the pool could not keep a single worker alive
    // (fork failure, respawn budgets exhausted). Finish the sweep
    // in-process rather than losing it. Safe with respect to the OpenMP
    // fork caveat — no parallel region has run in this process yet, and no
    // further forks follow. Crash containment is lost, and the run says
    // so: the "sandbox_degraded" metadata flag and each cell's record.
    degraded_ = true;
    std::cerr << "warning: worker pool unavailable ("
              << pool_stats_.spawn_failures
              << " spawn failures); degrading to in-process execution — "
                 "crash containment disabled for the rest of this sweep\n";
    for (PooledJob& p : jobs) {
      if (p.done) continue;
      if (stopped || sandbox::interrupt_signal() != 0) break;
      for (; p.attempts <= params_.retries; ) {
        if (p.attempts > 0 && params_.retry_backoff_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              params_.retry_backoff_ms << (p.attempts - 1)));
        }
        cali::Channel scratch;
        p.r.attempts = ++p.attempts;
        {
          cali::TraceSpan cell_span(
              cell_span_name(p.r.kernel, p.cell->vid, p.cell->tuning_name));
          p.r.status = run_cell_once(*p.cell, scratch, p.r);
        }
        if (p.r.status == RunStatus::Passed) {
          channels_[{p.cell->vid, p.cell->tuning_name}].merge(scratch);
          break;
        }
        if (p.r.status == RunStatus::TimedOut) break;
        if (p.r.status != RunStatus::Failed &&
            p.r.status != RunStatus::ChecksumInvalid) {
          break;
        }
      }
      finalize(p.r);
      p.done = true;
    }
  }

  // Anything still unresolved (interrupt, --no-keep-going abort, pool
  // failure mid-degradation) is recorded as skipped so every planned cell
  // has a terminal record.
  const int isig = sandbox::interrupt_signal();
  for (PooledJob& p : jobs) {
    if (p.done) continue;
    p.r.status = RunStatus::Skipped;
    if (stopped) {
      p.r.error = "sweep stopped by --no-keep-going after an earlier failure";
    } else if (isig != 0) {
      p.r.error = "interrupted by " + sandbox::signal_name(isig) +
                  "; checkpoint flushed";
    } else {
      p.r.error = "not executed: worker pool unavailable";
    }
    finalize(p.r);
    p.done = true;
  }
}

void Executor::write_trace(const std::string& path) const {
  std::vector<cali::TraceData> parts;
  parts.reserve(1 + worker_traces_.size());
  parts.push_back(main_trace_);
  parts.insert(parts.end(), worker_traces_.begin(), worker_traces_.end());
  std::map<std::string, std::string> meta;
  meta["suite"] = "rajaperf-repro";
  {
    std::ostringstream os;
    os << trace_overhead_pct_;
    meta["trace_overhead_pct"] = os.str();
  }
  {
    std::ostringstream os;
    os << run_wall_sec_;
    meta["run_wall_sec"] = os.str();
  }
  const std::string text = cali::chrome_trace_json(parts, meta);
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open trace file for writing: " + path);
  }
  os << text << '\n';
}

KernelBase* Executor::find_kernel(const std::string& name) const {
  for (const auto& k : kernels_) {
    if (k->name() == name) return k.get();
  }
  return nullptr;
}

std::vector<cali::Profile> Executor::profiles() const {
  std::vector<cali::Profile> out;
  out.reserve(channels_.size());
  for (const auto& [key, channel] : channels_) {
    out.push_back(cali::to_profile(channel));
  }
  return out;
}

namespace {

void merge_profile_node(cali::ProfileNode& dst, const cali::ProfileNode& src) {
  dst.time_sec += src.time_sec;
  dst.visit_count += src.visit_count;
  for (const auto& [k, v] : src.metrics) dst.metrics[k] += v;
  for (const auto& child : src.children) {
    cali::ProfileNode* match = nullptr;
    for (auto& c : dst.children) {
      if (c.name == child.name) {
        match = &c;
        break;
      }
    }
    if (match != nullptr) {
      merge_profile_node(*match, child);
    } else {
      dst.children.push_back(child);
    }
  }
}

/// Fold `extra`'s regions into `prof` (metadata: prof wins on conflicts).
void merge_profile(cali::Profile& prof, const cali::Profile& extra) {
  for (const auto& root : extra.roots) {
    cali::ProfileNode* match = nullptr;
    for (auto& r : prof.roots) {
      if (r.name == root.name) {
        match = &r;
        break;
      }
    }
    if (match != nullptr) {
      merge_profile_node(*match, root);
    } else {
      prof.roots.push_back(root);
    }
  }
  for (const auto& [k, v] : extra.metadata) prof.metadata.emplace(k, v);
}

}  // namespace

void Executor::write_profiles() const {
  if (params_.output_dir.empty()) return;
  std::filesystem::create_directories(params_.output_dir);
  for (const auto& [key, channel] : channels_) {
    const std::string path = params_.output_dir + "/" +
                             to_string(key.first) + "." + key.second +
                             ".cali.json";
    cali::Profile prof = cali::to_profile(channel);
    // Under --resume the channel holds only the cells that re-ran; the
    // on-disk profile holds exactly the restored (previously passed) cells,
    // so folding the two keeps per-variant profiles complete.
    if (params_.resume && std::filesystem::exists(path)) {
      merge_profile(prof, cali::read_profile(path));
    }
    cali::write_profile(prof, path);
  }
}

std::map<RunStatus, std::size_t> Executor::status_counts() const {
  std::map<RunStatus, std::size_t> counts;
  for (RunStatus s : all_run_statuses()) counts[s] = 0;
  for (const auto& r : results_) ++counts[r.status];
  return counts;
}

bool Executor::all_passed() const {
  for (const auto& r : results_) {
    if (r.status != RunStatus::Passed) return false;
  }
  return true;
}

std::string Executor::status_report() const {
  const auto counts = status_counts();
  std::size_t restored = 0;
  for (const auto& r : results_) {
    if (r.restored) ++restored;
  }
  std::ostringstream os;
  os << "cells: " << counts.at(RunStatus::Passed) << " passed, "
     << counts.at(RunStatus::Failed) << " failed, "
     << counts.at(RunStatus::ChecksumInvalid) << " checksum-invalid, "
     << counts.at(RunStatus::TimedOut) << " timed-out, "
     << counts.at(RunStatus::Crashed) << " crashed, "
     << counts.at(RunStatus::OutOfMemory) << " out-of-memory, "
     << counts.at(RunStatus::Killed) << " killed, "
     << counts.at(RunStatus::Skipped) << " skipped";
  if (restored > 0) os << " (" << restored << " restored from checkpoint)";
  os << '\n';
  for (const auto& r : results_) {
    if (r.status == RunStatus::Passed) continue;
    os << "  " << to_string(r.status) << " " << r.kernel << " ["
       << to_string(r.variant) << "/" << r.tuning_name << "]";
    if (r.attempts > 1) os << " after " << r.attempts << " attempts";
    if (!r.error.empty()) os << ": " << r.error;
    os << '\n';
  }
  return os.str();
}

namespace {

/// Variants present in the sweep's default-tuning results, in enum order.
std::vector<VariantID> report_variants(const std::vector<RunResult>& results) {
  std::vector<VariantID> vids;
  for (VariantID v : all_variants()) {
    for (const auto& r : results) {
      if (r.variant == v && r.tuning_name == "default") {
        vids.push_back(v);
        break;
      }
    }
  }
  return vids;
}

/// Default-tuning result for (kernel, variant); nullptr when not swept.
const RunResult* find_result(const std::vector<RunResult>& results,
                             const std::string& kernel, VariantID v) {
  for (const auto& r : results) {
    if (r.kernel == kernel && r.variant == v && r.tuning_name == "default") {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

std::string Executor::timing_report() const {
  const std::vector<VariantID> vids = report_variants(results_);

  std::ostringstream os;
  os << std::left << std::setw(32) << "Kernel";
  for (VariantID v : vids) os << std::right << std::setw(16) << to_string(v);
  os << '\n';
  for (const auto& kernel : kernels_) {
    os << std::left << std::setw(32) << kernel->name();
    for (VariantID v : vids) {
      const RunResult* r = find_result(results_, kernel->name(), v);
      if (r != nullptr && r->status == RunStatus::Passed) {
        os << std::right << std::setw(16) << std::scientific
           << std::setprecision(3) << r->time_per_rep_sec;
      } else if (r != nullptr) {
        os << std::right << std::setw(16) << status_marker(r->status);
      } else {
        os << std::right << std::setw(16) << "--";
      }
    }
    os << '\n';
  }
  return os.str();
}

std::string Executor::checksum_report() const {
  const std::vector<VariantID> vids = report_variants(results_);

  std::ostringstream os;
  os << std::left << std::setw(32) << "Kernel";
  for (VariantID v : vids) os << std::right << std::setw(22) << to_string(v);
  os << '\n';
  for (const auto& kernel : kernels_) {
    os << std::left << std::setw(32) << kernel->name();
    for (VariantID v : vids) {
      const RunResult* r = find_result(results_, kernel->name(), v);
      if (r != nullptr && r->status == RunStatus::Passed) {
        os << std::right << std::setw(22) << std::scientific
           << std::setprecision(12) << static_cast<double>(r->checksum);
      } else if (r != nullptr) {
        os << std::right << std::setw(22) << status_marker(r->status);
      } else {
        os << std::right << std::setw(22) << "--";
      }
    }
    os << '\n';
  }
  return os.str();
}

bool Executor::checksums_consistent(std::string* details) const {
  // Variants of a kernel must agree within each tuning (different tunings
  // may legitimately compute different configurations). Cells that did not
  // pass are excluded: their failure is already reported as a RunStatus.
  auto cell_passed = [&](const std::string& kernel,
                         const std::string& tuning_name, VariantID v) {
    for (const auto& r : results_) {
      if (r.kernel == kernel && r.variant == v &&
          r.tuning_name == tuning_name) {
        return r.status == RunStatus::Passed;
      }
    }
    // No recorded result (e.g. kernel executed directly in tests): fall
    // back to the kernel's own record.
    return true;
  };

  bool ok = true;
  std::ostringstream os;
  for (const auto& kernel : kernels_) {
    for (std::size_t tuning = 0; tuning < kernel->num_tunings(); ++tuning) {
      const std::string& tname = kernel->tunings()[tuning];
      long double reference = 0.0L;
      bool have_reference = false;
      VariantID ref_vid = VariantID::Base_Seq;
      for (VariantID v : kernel->variants()) {
        if (!kernel->was_run(v, tuning)) continue;
        if (!cell_passed(kernel->name(), tname, v)) continue;
        if (!have_reference) {
          reference = kernel->checksum(v, tuning);
          ref_vid = v;
          have_reference = true;
          continue;
        }
        const long double cs = kernel->checksum(v, tuning);
        if (!checksums_match(reference, cs, params_.checksum_tolerance)) {
          ok = false;
          os << kernel->name() << " [" << tname
             << "]: " << to_string(ref_vid) << "="
             << static_cast<double>(reference) << " vs " << to_string(v)
             << "=" << static_cast<double>(cs) << '\n';
        }
      }
    }
  }
  if (details != nullptr) *details = os.str();
  return ok;
}

}  // namespace rperf::suite
