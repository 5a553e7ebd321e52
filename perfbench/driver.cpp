// perfbench_driver — one benchmark trial per process.
//
// run.py starts this binary once per trial and aggregates the JSON each
// trial writes to --out. Keeping every trial in its own process keeps
// pooled sweeps safe: a fork after libgomp has started its thread pool
// can deadlock, so nothing here runs OpenMP before a pooled sweep.
//
//   perfbench_driver sweep --out FILE [--exclude A,B]
//                          [--spans --probe-dir DIR] [-- SUITE ARGS...]
//     Times the set-up rajaperf does once, cold: parsing the SUITE ARGS,
//     constructing the kernels and opening the --store directory. Then
//     times one Executor::run(). Writes every cell, the pool/mem/store
//     statistics and the process's peak RSS. --spans adds the
//     benchmark-side layer spans plus the layer probes that only the
//     traced run makes: the wire cell codec on the run's own results,
//     fill/checksum bandwidth on a fixed buffer, and a replay of the
//     run's appends into a fresh store at --probe-dir, read back the way
//     rperf-report does.
//
//   perfbench_driver setup --out FILE [--exclude A,B] [-- SUITE ARGS...]
//     Times the same set-up alone, removes the store it opened and exits:
//     one more set-up sample from a fresh process.
//
//   perfbench_driver info
//     Prints the build and PMU facts run.py stamps into the host
//     fingerprint.
//
// perfbench_driver never writes outside --out, --store and --probe-dir.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "counters/perf_event.hpp"
#include "instrument/json.hpp"
#include "mem/cache.hpp"
#include "mem/fill.hpp"
#include "mem/pool.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "suite/data_utils.hpp"
#include "suite/executor.hpp"
#include "suite/registry.hpp"
#include "suite/run_params.hpp"

namespace {

namespace fs = std::filesystem;
namespace json = rperf::json;
namespace store = rperf::store;
namespace suite = rperf::suite;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Benchmark-side spans around calls into one layer's public API. The
/// program records nothing itself; run.py derives per-layer self time
/// (a span's duration minus its children's) from these.
class Spans {
 public:
  explicit Spans(bool on) : on_(on), epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(Spans& s, const char* layer, const char* name) : s_(s) {
      if (!s_.on_) return;
      idx_ = static_cast<int>(s_.spans_.size());
      s_.spans_.push_back({layer, name, s_.now(), 0.0,
                           s_.stack_.empty() ? -1 : s_.stack_.back()});
      s_.stack_.push_back(idx_);
    }
    ~Scope() {
      if (idx_ < 0) return;
      s_.spans_[static_cast<std::size_t>(idx_)].t1 = s_.now();
      s_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    int idx_ = -1;
  };

  [[nodiscard]] json::Value to_json() const {
    json::Array out;
    for (const auto& s : spans_) {
      json::Object o;
      o["layer"] = s.layer;
      o["name"] = s.name;
      o["t0"] = s.t0;
      o["t1"] = s.t1;
      o["parent"] = s.parent;
      out.emplace_back(std::move(o));
    }
    return out;
  }

 private:
  struct Span {
    std::string layer;
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
  };
  double now() const { return since(epoch_); }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

std::string hex_checksum(long double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%La", v);
  return buf;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

void write_json(const std::string& path, json::Object o) {
  std::ofstream os(path);
  os << json::Value(std::move(o)).dump() << '\n';
  if (!os) throw std::runtime_error("cannot write " + path);
}

/// Median of a sample (the sample is reordered).
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Repeat fn() until at least min_sec has elapsed; seconds per call.
template <typename Fn>
double time_per_call(Fn&& fn, double min_sec = 0.05) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  do {
    fn();
    ++calls;
  } while (since(t0) < min_sec);
  return since(t0) / static_cast<double>(calls);
}

store::CellRecord to_cell_record(const suite::RunResult& r) {
  store::CellRecord c;
  c.kernel = r.kernel;
  c.variant = suite::to_string(r.variant);
  c.tuning = r.tuning_name;
  c.status = suite::to_string(r.status);
  c.time_per_rep_sec = r.time_per_rep_sec;
  c.checksum = r.checksum;
  c.problem_size = static_cast<std::int64_t>(r.problem_size);
  c.reps = static_cast<std::int64_t>(r.reps);
  c.attempts = static_cast<std::uint32_t>(r.attempts);
  c.error = r.error;
  return c;
}

// x86 long double carries 6 uninitialized padding bytes; compare the 10
// significant ones.
constexpr std::size_t kChecksumBytes =
    sizeof(long double) >= 10 ? 10 : sizeof(long double);

bool same_cell(const store::CellRecord& a, const store::CellRecord& b) {
  return a.kernel == b.kernel && a.variant == b.variant &&
         a.tuning == b.tuning && a.status == b.status &&
         a.time_per_rep_sec == b.time_per_rep_sec &&
         a.problem_size == b.problem_size && a.reps == b.reps &&
         a.attempts == b.attempts && a.error == b.error &&
         std::memcmp(&a.checksum, &b.checksum, kChecksumBytes) == 0;
}

bool same_run(const store::StoredRun& a, const store::StoredRun& b) {
  if (a.run_id != b.run_id || a.config != b.config ||
      a.complete != b.complete || a.trace_summary != b.trace_summary ||
      a.cells.size() != b.cells.size() ||
      a.profiles.size() != b.profiles.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (!same_cell(a.cells[i], b.cells[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------- sweep

/// Kernel names passing params' group filter, minus `excluded`.
std::vector<std::string> kernels_without(const suite::RunParams& params,
                                         const std::set<std::string>& excluded) {
  std::vector<std::string> keep;
  for (const auto& name : suite::all_kernel_names()) {
    if (excluded.count(name) != 0 || !params.wants_kernel(name)) continue;
    const auto group = suite::group_from_string(name.substr(0, name.find('_')));
    if (params.wants_group(group)) keep.push_back(name);
  }
  return keep;
}

json::Object pool_stats_json(const rperf::sandbox::PoolStats& s) {
  json::Object o;
  o["spawns"] = static_cast<std::uint64_t>(s.spawns);
  o["recycles"] = static_cast<std::uint64_t>(s.recycles);
  o["jobs_dispatched"] = static_cast<std::uint64_t>(s.jobs_dispatched);
  o["jobs_completed"] = static_cast<std::uint64_t>(s.jobs_completed);
  o["jobs_failed"] = static_cast<std::uint64_t>(s.jobs_failed);
  o["peak_queue_depth"] = static_cast<std::uint64_t>(s.peak_queue_depth);
  o["affinity_hits"] = static_cast<std::uint64_t>(s.affinity_hits);
  o["ring_fallbacks"] = static_cast<std::uint64_t>(s.ring_fallbacks);
  o["ring_messages"] = s.ring_messages;
  o["ring_payload_bytes"] = s.ring_payload_bytes;
  o["peak_rss_kb"] = static_cast<std::int64_t>(s.peak_rss_kb);
  o["child_cpu_s"] = s.child_user_sec + s.child_sys_sec;
  return o;
}

/// instrument: the one cell codec, timed per cell record on real cells.
void wire_probe(const std::vector<store::CellRecord>& cells, json::Object& probes) {
  std::vector<std::string> blobs(cells.size());
  const double enc = time_per_call([&] {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      blobs[i] = store::encode_cell_payload(cells[i]);
    }
  });
  bool round_trip = true;
  const double dec = time_per_call([&] {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      round_trip &= same_cell(store::decode_cell_payload(blobs[i]), cells[i]);
    }
  });
  const double n = std::max<double>(1.0, static_cast<double>(cells.size()));
  probes["wire_encode_us"] = enc / n * 1e6;
  probes["wire_decode_us"] = dec / n * 1e6;
  probes["wire_round_trip_ok"] = round_trip;
}

/// mem: the public fill and checksum functions on a fixed 32 MiB buffer.
void mem_probe(json::Object& probes) {
  constexpr std::int64_t kElems = 4 << 20;
  std::vector<double> buf(static_cast<std::size_t>(kElems));
  const double bytes = static_cast<double>(kElems) * sizeof(double);
  std::vector<double> fill_s;
  std::vector<double> sum_s;
  bool finite = true;
  for (int rep = 0; rep < 9; ++rep) {
    auto t0 = Clock::now();
    rperf::mem::fill_random(buf.data(), kElems, 7u + rep % 2);
    fill_s.push_back(since(t0));
    t0 = Clock::now();
    finite &= std::isfinite(
        static_cast<double>(suite::calc_checksum(buf.data(), kElems)));
    sum_s.push_back(since(t0));
  }
  probes["fill_gbs"] = bytes / median(fill_s) / 1e9;
  probes["checksum_gbs"] = bytes / median(sum_s) / 1e9;
  probes["checksum_finite"] = finite;
}

/// store: replay a run's cells into a fresh store at `dir` through the
/// calls the executor makes (one commit per cell, profiles, sealing
/// finish), then read it back the way `rperf-report --store` does.
void store_probe(const std::vector<store::CellRecord>& cells,
                 const std::vector<rperf::cali::Profile>& profiles,
                 const std::string& dir, json::Object& probes) {
  fs::remove_all(dir);
  double append_s = 0.0;
  double seal_s = 0.0;
  std::string run_id;
  {
    store::StoreWriter w(dir);
    run_id = w.begin_run({{"suite", "perfbench-replay"}});
    for (const auto& c : cells) {
      const auto t0 = Clock::now();
      w.add_cell(c);
      w.commit();
      append_s += since(t0);
    }
    for (const auto& p : profiles) {
      w.add_profile(p.metadata.at("variant"), p.metadata.at("tuning"), p);
    }
    const auto t0 = Clock::now();
    w.finish_run();
    seal_s = since(t0);
  }
  probes["append_ms_per_cell"] =
      append_s * 1e3 / std::max<double>(1.0, static_cast<double>(cells.size()));
  probes["seal_ms"] = seal_s * 1e3;

  auto t0 = Clock::now();
  store::StoreQuery q(dir);
  probes["catalog_ms"] = since(t0) * 1e3;
  t0 = Clock::now();
  const auto run = q.run(run_id.substr(0, 8));
  probes["lookup_ms"] = since(t0) * 1e3;
  t0 = Clock::now();
  const auto& all = q.all_runs();
  probes["scan_ms"] = since(t0) * 1e3;
  // Kernel-filtered queries (`rperf-report --kernel`): one for a kernel
  // the run holds, which must find it, and one for each registered kernel
  // it lacks, whose one sealed segment the bloom filter should skip.
  std::set<std::string> present;
  for (const auto& c : cells) present.insert(c.kernel);
  const bool kernel_found =
      cells.empty() || !q.runs_with_kernel(cells.front().kernel).empty();
  std::size_t pruned = 0;
  std::size_t filtered = 0;
  for (const auto& k : suite::all_kernel_names()) {
    if (present.count(k) != 0) continue;
    (void)q.runs_with_kernel(k);
    pruned += q.last_bloom_pruned();
    filtered += q.segment_count();
  }
  probes["bloom_pruned_ratio"] =
      filtered ? static_cast<double>(pruned) / static_cast<double>(filtered)
               : 0.0;
  probes["replay_ok"] = run.has_value() && all.size() == 1 &&
                        same_run(*run, all[0]) && kernel_found &&
                        run->cells.size() == cells.size() && run->complete;
  probes["indexed_ratio"] =
      q.segment_count() ? static_cast<double>(q.indexed_segments()) /
                              static_cast<double>(q.segment_count())
                        : 0.0;
  probes["store_warnings"] = static_cast<std::uint64_t>(q.warnings().size());
  fs::remove_all(dir);
}

/// Check that a pooled sweep's store holds the run it just landed: every
/// cell committed, the run complete, and the indexed lookup identical to
/// the full scan.
json::Object store_read_back(const suite::Executor& exec,
                             const std::string& dir) {
  json::Object o;
  store::StoreQuery q(dir);
  const auto run = q.run(exec.store_run_id());
  store::QueryOptions no_index;
  no_index.use_index = false;
  store::StoreQuery full(dir, no_index);
  const auto scanned = full.run(exec.store_run_id());
  o["cells_landed"] = static_cast<std::uint64_t>(run ? run->cells.size() : 0);
  o["run_complete"] = run.has_value() && run->complete;
  o["index_matches_scan"] =
      run.has_value() && scanned.has_value() && same_run(*run, *scanned);
  o["warnings"] = static_cast<std::uint64_t>(q.warnings().size());
  return o;
}

struct SweepArgs {
  std::string out;
  bool spans_on = false;
  std::string probe_dir;
  std::set<std::string> excluded;
  std::vector<const char*> suite_args = {"perfbench"};
};

/// Parses `perfbench_driver sweep|setup` arguments; false on a bad one.
bool parse_sweep_args(int argc, char** argv, SweepArgs& a) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      a.out = argv[++i];
    } else if (arg == "--exclude" && i + 1 < argc) {
      for (auto& k : split_csv(argv[++i])) a.excluded.insert(k);
    } else if (arg == "--probe-dir" && i + 1 < argc) {
      a.probe_dir = argv[++i];
    } else if (arg == "--spans") {
      a.spans_on = true;
    } else if (arg == "--") {
      for (++i; i < argc; ++i) a.suite_args.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "perfbench_driver %s: unknown argument %s\n",
                   argv[1], arg.c_str());
      return false;
    }
  }
  if (a.out.empty() || (a.spans_on && a.probe_dir.empty())) {
    std::fprintf(stderr,
                 "perfbench_driver %s: --out (and --probe-dir with "
                 "--spans) are required\n",
                 argv[1]);
    return false;
  }
  return true;
}

struct SetUp {
  std::unique_ptr<suite::Executor> exec;
  std::string store_dir;
  double seconds = 0.0;
};

/// The set-up a rajaperf invocation does once, cold, before its sweep:
/// parse the arguments, construct the kernels and open the store.
SetUp set_up(const SweepArgs& a, Spans& spans) {
  const auto t0 = Clock::now();
  SetUp out;
  suite::RunParams params;
  {
    Spans::Scope s(spans, "suite", "parse_args");
    params = suite::RunParams::parse(static_cast<int>(a.suite_args.size()),
                                     a.suite_args.data());
    if (!a.excluded.empty()) {
      params.kernel_filter = kernels_without(params, a.excluded);
    }
  }
  {
    Spans::Scope s(spans, "suite", "construct_kernels");
    out.exec = std::make_unique<suite::Executor>(params);
  }
  out.store_dir = params.store_dir;
  if (!out.store_dir.empty()) {
    Spans::Scope s(spans, "store", "open");
    store::StoreWriter open(out.store_dir);
  }
  out.seconds = since(t0);
  return out;
}

/// `setup`: one more set-up sample, in a fresh process of its own.
int cmd_setup(int argc, char** argv) {
  SweepArgs a;
  if (!parse_sweep_args(argc, argv, a)) return 2;
  Spans spans(false);
  const SetUp su = set_up(a, spans);
  if (!su.store_dir.empty()) fs::remove_all(su.store_dir);
  json::Object o;
  o["setup_s"] = su.seconds;
  write_json(a.out, std::move(o));
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  SweepArgs a;
  if (!parse_sweep_args(argc, argv, a)) return 2;
  Spans spans(a.spans_on);
  const SetUp su = set_up(a, spans);
  const auto& exec = su.exec;
  const std::string& store_dir = su.store_dir;

  double wall = 0.0;
  {
    Spans::Scope s(spans, "suite", "Executor::run");
    const auto t0 = Clock::now();
    exec->run();
    wall = since(t0);
  }

  json::Object o;
  o["setup_s"] = su.seconds;
  o["run_wall_s"] = wall;
  o["peak_rss_kb"] = static_cast<std::int64_t>(peak_rss_kb());
  o["pool"] = pool_stats_json(exec->pool_stats());
  o["degraded"] = exec->degraded();
  o["trace_overhead_pct"] = exec->trace_overhead_pct();
  o["store_error"] = exec->store_error();
  std::string details;
  o["cross_variant_ok"] = exec->checksums_consistent(&details);
  o["cross_variant_details"] = details;
  {
    const auto ps = rperf::mem::pool().stats();
    const auto cs = rperf::mem::data_cache().stats();
    json::Object m;
    m["pool_alloc_calls"] = ps.alloc_calls;
    m["pool_reuse_hits"] = ps.reuse_hits;
    m["cache_hits"] = cs.hits;
    m["cache_misses"] = cs.misses;
    o["mem"] = std::move(m);
  }

  json::Array kernels;
  for (const auto& k : exec->kernels()) {
    json::Object ko;
    ko["name"] = k->name();
    ko["bytes_per_rep"] = k->traits().bytes_read + k->traits().bytes_written;
    ko["working_set_bytes"] = k->traits().working_set_bytes;
    kernels.emplace_back(std::move(ko));
  }
  o["kernels"] = std::move(kernels);

  json::Array cells;
  for (const auto& r : exec->results()) {
    json::Object c;
    c["kernel"] = r.kernel;
    c["variant"] = suite::to_string(r.variant);
    c["tuning"] = r.tuning_name;
    c["status"] = suite::to_string(r.status);
    c["time_per_rep_sec"] = r.time_per_rep_sec;
    c["checksum"] = static_cast<double>(r.checksum);
    c["checksum_hex"] = hex_checksum(r.checksum);
    c["reps"] = static_cast<std::int64_t>(r.reps);
    c["setup_ms"] = r.setup_ms;
    c["checksum_ms"] = r.checksum_ms;
    c["pool_hits"] = r.pool_hits;
    c["cache_hits"] = r.cache_hits;
    c["attempts"] = r.attempts;
    cells.emplace_back(std::move(c));
  }
  o["cells"] = std::move(cells);

  if (!store_dir.empty()) {
    Spans::Scope s(spans, "store", "read_back");
    o["store_read_back"] = store_read_back(*exec, store_dir);
  }
  if (a.spans_on) {
    std::vector<store::CellRecord> records;
    for (const auto& r : exec->results()) records.push_back(to_cell_record(r));
    json::Object probes;
    {
      Spans::Scope s(spans, "instrument", "wire_codec");
      wire_probe(records, probes);
    }
    {
      Spans::Scope s(spans, "mem", "fill_checksum");
      mem_probe(probes);
    }
    {
      Spans::Scope s(spans, "store", "append_replay");
      store_probe(records, exec->profiles(), a.probe_dir, probes);
    }
    o["probes"] = std::move(probes);
  }
  o["spans"] = spans.to_json();
  write_json(a.out, std::move(o));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (cmd == "setup") return cmd_setup(argc, argv);
    if (cmd == "info") {
      // Build and host facts run.py stamps into the host fingerprint.
      const auto& pmu = rperf::hwc::cached_probe();
      json::Object o;
      o["build_type"] = PERFBENCH_BUILD_TYPE;
      o["kernels"] = static_cast<std::uint64_t>(suite::all_kernel_names().size());
      o["pmu_available"] = pmu.available;
      o["hwc_source"] = pmu.available ? "measured" : "simulated";
      o["pmu_reason"] = pmu.reason;
      std::printf("%s\n", json::Value(std::move(o)).dump().c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: perfbench_driver sweep|setup|info ...\n");
  return 2;
}
