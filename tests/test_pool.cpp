// Tests for rperf::sandbox::WorkerPool and the executor's pooled execution
// path (--workers): the v2 framed protocol, supervised crash recycling,
// heartbeat-timeout detection, central deadlines, backpressure, the
// measure slot and key spreading, crash-loop quarantine, fork-failure
// degradation, and bit-identical parity of pooled vs in-process results.
//
// OpenMP note: pooled workers are forked from the test process, so the
// fixture pins OpenMP to one thread and the sweeps stick to Seq variants
// (a forked copy of a live libgomp thread pool deadlocks). Executor tests
// that compare against in-process execution always run the pooled half
// FIRST for the same reason.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <omp.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "faults/injector.hpp"
#include "instrument/json.hpp"
#include "sandbox/pool.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/sandbox.hpp"
#include "suite/executor.hpp"

namespace {

using namespace rperf;
using namespace rperf::suite;
using sandbox::Disposition;
using sandbox::FailReason;
using sandbox::FrameReader;
using sandbox::Job;
using sandbox::JobFailure;
using sandbox::PoolClient;
using sandbox::PoolConfig;
using sandbox::PoolOutcome;
using sandbox::WorkerPool;

/// After run() returns there must be no child left to reap — dead workers
/// were waited inline, live ones killed and waited in teardown.
void expect_no_children() {
  errno = 0;
  const pid_t got = waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(got == -1 && errno == ECHILD)
      << "waitpid found leftover children (got pid " << got << ")";
}

RunParams pooled_params() {
  RunParams p;
  p.size_factor = 0.01;
  p.reps_factor = 0.1;
  p.min_reps = 2;
  p.retry_backoff_ms = 0;
  p.isolate = IsolationMode::Cell;
  p.workers = 2;
  p.kernel_filter = {"Basic_DAXPY", "Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq, VariantID::Lambda_Seq};
  return p;
}

const RunResult* find_cell(const Executor& exec, const std::string& kernel,
                           VariantID v) {
  for (const auto& r : exec.results()) {
    if (r.kernel == kernel && r.variant == v) return &r;
  }
  return nullptr;
}

class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    omp_set_num_threads(1);
    faults::injector().reset();
    sandbox::clear_interrupt();
    sandbox::pool_testing::fail_next_forks(0);
  }
  void TearDown() override {
    faults::injector().reset();
    sandbox::clear_interrupt();
    sandbox::pool_testing::fail_next_forks(0);
  }
};

// ------------------------------------------------------- framed protocol

TEST_F(PoolTest, Crc32MatchesKnownVector) {
  // The IEEE CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(sandbox::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(sandbox::crc32("", 0), 0u);
}

TEST_F(PoolTest, FrameRoundTripsThroughSplitFeeds) {
  const std::string payload = "result 42\n{\"status\":\"Passed\"}";
  const std::string wire = sandbox::frame_encode(payload) +
                           sandbox::frame_encode("hb 7");
  FrameReader reader;
  // Byte-by-byte feeding must reassemble both frames intact.
  std::vector<std::string> out;
  for (char c : wire) {
    reader.feed(&c, 1);
    std::string p;
    while (reader.next(p) == FrameReader::Status::Frame) out.push_back(p);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], payload);
  EXPECT_EQ(out[1], "hb 7");
  EXPECT_FALSE(reader.corrupt());
}

TEST_F(PoolTest, CorruptCrcLatchesTheStream) {
  const std::string wire =
      sandbox::frame_encode("job 1\nx", /*corrupt_crc=*/true) +
      sandbox::frame_encode("job 2\ny");
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  std::string p;
  EXPECT_EQ(reader.next(p), FrameReader::Status::Corrupt);
  EXPECT_TRUE(reader.corrupt());
  // No resync: the good frame behind the torn one is unreachable by
  // design (the supervisor kills the worker instead).
  EXPECT_EQ(reader.next(p), FrameReader::Status::Corrupt);
}

TEST_F(PoolTest, BadMagicAndOversizeFramesAreCorrupt) {
  {
    std::string wire = sandbox::frame_encode("hello 2 1");
    wire[0] = 'X';  // clobber the magic
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    std::string p;
    EXPECT_EQ(reader.next(p), FrameReader::Status::Corrupt);
  }
  {
    // A length field past kMaxFramePayload must be rejected up front, not
    // buffered to exhaustion.
    std::string wire = sandbox::frame_encode("x");
    const std::uint32_t huge = sandbox::kMaxFramePayload + 1;
    std::memcpy(wire.data() + 4, &huge, sizeof huge);
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    std::string p;
    EXPECT_EQ(reader.next(p), FrameReader::Status::Corrupt);
  }
}

// ----------------------------------------------------- pool: happy path

TEST_F(PoolTest, PoolRunsEveryJobAndLeavesNoZombies) {
  PoolConfig cfg;
  cfg.workers = 3;
  cfg.heartbeat_interval_ms = 10;  // several beats land within the run
  PoolClient client;
  client.run_job = [](const std::string& payload) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return "echo:" + payload;
  };
  std::vector<std::string> results(8);
  std::atomic<int> resolved{0};
  client.before_dispatch = [](Job& job) {
    job.payload = "job" + std::to_string(job.id);
  };
  client.on_result = [&](const Job& job, const std::string& result) {
    results[job.id] = result;
    ++resolved;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= results.size()) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(resolved.load(), 8);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], "echo:job" + std::to_string(i));
  }
  const auto& st = pool.stats();
  EXPECT_EQ(st.jobs_completed, 8u);
  EXPECT_EQ(st.recycles, 0u);
  EXPECT_GE(st.heartbeats, 1u);
  expect_no_children();
}

// ------------------------------------------------ pool: crash recycling

TEST_F(PoolTest, SigkilledBusyWorkerIsRecycledAndJobRetried) {
  PoolConfig cfg;
  cfg.workers = 2;
  // Parent-authoritative attempt counts drive the payload, so the retry
  // of a killed job runs clean on the fresh worker.
  std::vector<int> attempts(4, 0);
  PoolClient client;
  client.before_dispatch = [&](Job& job) {
    job.payload = (job.id == 1 && attempts[job.id] == 0) ? "die" : "ok";
    ++attempts[job.id];
  };
  client.run_job = [](const std::string& payload) -> std::string {
    if (payload == "die") raise(SIGKILL);
    return "done";
  };
  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  client.on_result = [&](const Job&, const std::string&) {
    ++completed;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job& job, const JobFailure& f) {
    EXPECT_EQ(job.id, 1u);
    EXPECT_EQ(f.reason, FailReason::WorkerDied);
    EXPECT_FALSE(f.exited);
    EXPECT_EQ(f.signal, SIGKILL);
    ++failures;
    return Disposition::Retry;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= attempts.size()) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(completed.load(), 4);  // every job resolved, incl. the retry
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(attempts[1], 2);
  EXPECT_GE(pool.stats().recycles, 1u);
  // The retry may land on the surviving worker before the respawn
  // completes, so only the initial spawns are guaranteed.
  EXPECT_GE(pool.stats().spawns, 2u);
  expect_no_children();
}

TEST_F(PoolTest, HeartbeatSilenceIsDetectedAndWorkerRecycled) {
  PoolConfig cfg;
  cfg.workers = 1;
  cfg.heartbeat_interval_ms = 20;
  cfg.heartbeat_timeout_ms = 250;
  PoolClient client;
  client.before_dispatch = [](Job& job) {
    job.payload = job.id == 0 ? "wedge" : "ok";
  };
  client.run_job = [](const std::string& payload) -> std::string {
    if (payload == "wedge") {
      // Alive but silent: no heartbeats, no result. Only the supervisor's
      // timeout can notice.
      WorkerPool::suppress_heartbeats();
      for (int i = 0; i < 6000; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    return "done";
  };
  std::atomic<int> completed{0};
  std::atomic<int> hb_failures{0};
  client.on_result = [&](const Job&, const std::string&) {
    ++completed;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job& job, const JobFailure& f) {
    EXPECT_EQ(job.id, 0u);
    EXPECT_EQ(f.reason, FailReason::HeartbeatTimeout);
    ++hb_failures;
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= 2) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(hb_failures.load(), 1);
  EXPECT_EQ(completed.load(), 1);  // the second job ran on the respawn
  EXPECT_GE(pool.stats().heartbeat_timeouts, 1u);
  expect_no_children();
}

TEST_F(PoolTest, CorruptResultFrameFailsTheJobAndRecyclesTheWorker) {
  PoolConfig cfg;
  cfg.workers = 1;
  PoolClient client;
  std::vector<int> attempts(2, 0);
  client.before_dispatch = [&](Job& job) {
    job.payload = (job.id == 0 && attempts[job.id] == 0) ? "corrupt" : "ok";
    ++attempts[job.id];
  };
  client.run_job = [](const std::string& payload) -> std::string {
    if (payload == "corrupt") WorkerPool::corrupt_next_frame();
    return "done";
  };
  std::atomic<int> completed{0};
  std::atomic<int> corrupt_failures{0};
  client.on_result = [&](const Job&, const std::string&) {
    ++completed;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job& job, const JobFailure& f) {
    EXPECT_EQ(job.id, 0u);
    EXPECT_EQ(f.reason, FailReason::ProtocolCorrupt);
    ++corrupt_failures;
    return Disposition::Retry;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= 2) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(corrupt_failures.load(), 1);
  EXPECT_EQ(completed.load(), 2);  // retry + the clean job
  EXPECT_GE(pool.stats().corrupt_frames, 1u);
  EXPECT_GE(pool.stats().recycles, 1u);
  expect_no_children();
}

TEST_F(PoolTest, JobDeadlineIsEnforcedCentrally) {
  PoolConfig cfg;
  cfg.workers = 1;
  cfg.job_deadline_sec = 0.3;
  cfg.term_grace_ms = 100;
  PoolClient client;
  client.before_dispatch = [](Job& job) { job.payload = "hang"; };
  client.run_job = [](const std::string&) -> std::string {
    for (int i = 0; i < 6000; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return "done";
  };
  std::atomic<int> deadline_failures{0};
  client.on_result = [&](const Job&, const std::string&) {
    ADD_FAILURE() << "hung job produced a result";
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    EXPECT_EQ(f.reason, FailReason::DeadlineKilled);
    ++deadline_failures;
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= 1) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(deadline_failures.load(), 1);
  EXPECT_GE(pool.stats().deadline_kills, 1u);
  expect_no_children();
}

// --------------------------------------------------- pool: backpressure

TEST_F(PoolTest, BackpressureBoundsOutstandingPulls) {
  PoolConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  PoolClient client;
  client.before_dispatch = [](Job& job) {
    job.payload = std::to_string(job.id);
  };
  client.run_job = [](const std::string& payload) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return payload;
  };
  std::size_t completed = 0;
  std::size_t pulled = 0;
  std::size_t max_outstanding = 0;
  client.on_result = [&](const Job&, const std::string&) {
    ++completed;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };

  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (pulled >= 12) return std::nullopt;
    // The pool may hold at most queue_capacity pending jobs plus what the
    // workers have in flight; a greedy drain of the source would show up
    // as a larger gap between pulls and completions.
    max_outstanding = std::max(max_outstanding, pulled - completed);
    Job j;
    j.id = pulled++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(completed, 12u);
  EXPECT_LE(max_outstanding,
            cfg.queue_capacity + static_cast<std::size_t>(cfg.workers));
  EXPECT_LE(pool.stats().peak_queue_depth, cfg.queue_capacity);
  expect_no_children();
}

// ------------------------------------------------------ pool: measure slot

/// Seconds on the steady clock. CLOCK_MONOTONIC is system-wide, so stamps
/// taken in different worker processes and in the supervisor compare
/// directly.
double mono_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using Interval = std::pair<double, double>;

bool overlap(const Interval& a, const Interval& b) {
  return a.first < b.second && b.first < a.second;
}

std::size_t count_overlaps(const std::vector<Interval>& v) {
  std::size_t n = 0;
  for (std::size_t a = 0; a < v.size(); ++a) {
    for (std::size_t b = a + 1; b < v.size(); ++b) {
      if (overlap(v[a], v[b])) ++n;
    }
  }
  return n;
}

// Each job measures for 30 ms, optionally calls mark_measured(), then
// runs a 60 ms post-mark tail, and reports the three stamps. With one
// measure slot the measured intervals (dispatch to mark) never overlap,
// while a tail overlaps the next job's measurement. A client that never
// marks holds the slot to its result, so whole jobs serialize. Uncapped,
// whole jobs overlap.
TEST_F(PoolTest, MaxInflightCapSerializesJobExecution) {
  struct Case {
    std::size_t cap;
    bool marks;
  };
  for (const Case c : {Case{1, true}, Case{1, false}, Case{0, false}}) {
    SCOPED_TRACE("cap " + std::to_string(c.cap) +
                 (c.marks ? ", marks" : ", never marks"));
    PoolConfig cfg;
    cfg.workers = 2;
    cfg.max_inflight = c.cap;
    PoolClient client;
    client.before_dispatch = [](Job& job) {
      job.payload = std::to_string(job.id);
    };
    client.run_job = [marks = c.marks](const std::string&) {
      const double t0 = mono_now();
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      const double t_mark = mono_now();
      if (marks) WorkerPool::mark_measured();
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.6f %.6f %.6f", t0, t_mark,
                    mono_now());
      return std::string(buf);
    };
    std::vector<Interval> measured;
    std::vector<Interval> tails;
    std::vector<Interval> whole;
    client.on_result = [&](const Job&, const std::string& result) {
      double t0 = 0.0;
      double t_mark = 0.0;
      double t1 = 0.0;
      EXPECT_EQ(std::sscanf(result.c_str(), "%lf %lf %lf", &t0, &t_mark, &t1),
                3);
      measured.emplace_back(t0, t_mark);
      tails.emplace_back(t_mark, t1);
      whole.emplace_back(t0, t1);
      return Disposition::Done;
    };
    client.on_failure = [&](const Job&, const JobFailure& f) {
      ADD_FAILURE() << "unexpected failure: " << f.describe();
      return Disposition::Done;
    };

    std::size_t next = 0;
    WorkerPool pool(cfg, client);
    const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
      if (next >= 4) return std::nullopt;
      Job j;
      j.id = next++;
      return j;
    });

    EXPECT_EQ(out, PoolOutcome::Completed);
    ASSERT_EQ(measured.size(), 4u);
    if (c.cap == 1 && c.marks) {
      EXPECT_EQ(count_overlaps(measured), 0u)
          << "two jobs measured at once";
      std::size_t tail_overlaps = 0;
      for (const Interval& t : tails) {
        for (const Interval& m : measured) {
          if (overlap(t, m)) ++tail_overlaps;
        }
      }
      EXPECT_GE(tail_overlaps, 1u)
          << "no post-mark tail overlapped the next measurement";
      EXPECT_GE(count_overlaps(whole), 1u);
    } else if (c.cap == 1) {
      EXPECT_EQ(count_overlaps(whole), 0u)
          << "a client that never marks ran jobs concurrently";
    } else {
      EXPECT_GE(count_overlaps(whole), 1u)
          << "uncapped 2-worker pool never overlapped";
    }
    EXPECT_EQ(pool.stats().peak_measuring, c.cap == 1 ? 1u : 2u);
    expect_no_children();
  }
}

// One measure slot, 4 workers, 8 affinity keys x 3 jobs in key order (the
// executor's kernel-contiguous cells). New keys must spread across the
// pool rather than pile into the lowest idle slot, and a key's jobs must
// all stay on the worker that claimed it: every job after a key's first
// is an affinity hit, 8 x 2 = 16, as before spreading.
TEST_F(PoolTest, MeasureSlotSpreadsNewKeysAcrossWorkers) {
  constexpr std::size_t kKeys = 8;
  constexpr std::size_t kJobsPerKey = 3;
  PoolConfig cfg;
  cfg.workers = 4;
  cfg.max_inflight = 1;
  cfg.queue_capacity = kKeys * kJobsPerKey;  // the whole plan is visible
  PoolClient client;
  client.run_job = [](const std::string&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    WorkerPool::mark_measured();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return std::to_string(getpid());
  };
  std::map<std::uint64_t, std::set<std::string>> workers_of_key;
  std::map<std::string, std::set<std::uint64_t>> keys_of_worker;
  client.on_result = [&](const Job& job, const std::string& pid) {
    workers_of_key[job.affinity].insert(pid);
    keys_of_worker[pid].insert(job.affinity);
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= kKeys * kJobsPerKey) return std::nullopt;
    Job j;
    j.id = next;
    j.affinity = 1 + next / kJobsPerKey;
    ++next;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  const auto& st = pool.stats();
  ASSERT_EQ(st.recycles, 0u);
  EXPECT_EQ(st.jobs_completed, kKeys * kJobsPerKey);
  EXPECT_EQ(keys_of_worker.size(), 4u) << "a worker never claimed a key";
  ASSERT_EQ(workers_of_key.size(), kKeys);
  for (const auto& [key, pids] : workers_of_key) {
    EXPECT_EQ(pids.size(), 1u) << "key " << key << " left its claimant";
  }
  EXPECT_EQ(st.affinity_hits, kKeys * (kJobsPerKey - 1));
  EXPECT_EQ(st.peak_measuring, 1u);
  expect_no_children();
}

// The slot survives every way a job can end without a result. Job 1 is
// SIGKILLed and job 3 hangs into its deadline, both while holding the
// slot; job 5 dies after its mark but before its result. Dead workers are
// not respawned, so only the failure itself can free the slot; the last
// of the four workers finishes the rest. Every attempt logs its start and
// mark to a shared file (O_APPEND lines are atomic), the supervisor
// stamps the failures, and no two measured intervals — start to mark, or
// start to the failure that freed the slot — may overlap, retries
// included.
TEST_F(PoolTest, MeasureSlotSurvivesWorkerDeathAndDeadline) {
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("rperf_pool_slot_" + std::to_string(getpid()) + ".log"))
          .string();
  std::filesystem::remove(log_path);
  constexpr std::size_t kJobs = 8;

  PoolConfig cfg;
  cfg.workers = 4;
  cfg.max_inflight = 1;
  cfg.max_respawns = 0;
  cfg.job_deadline_sec = 0.4;
  cfg.term_grace_ms = 100;
  std::vector<int> attempts(kJobs, 0);
  PoolClient client;
  client.before_dispatch = [&](Job& job) {
    const int attempt = ++attempts[job.id];
    const char* kind = "ok";
    if (job.id == 1 && attempt == 1) kind = "kill";
    if (job.id == 3) kind = "hang";
    if (job.id == 5 && attempt == 1) kind = "late";
    job.payload = std::string(kind) + " " + std::to_string(job.id) + " " +
                  std::to_string(attempt);
  };
  client.run_job = [&log_path](const std::string& payload) -> std::string {
    char kind[8] = {0};
    int id = 0;
    int attempt = 0;
    std::sscanf(payload.c_str(), "%7s %d %d", kind, &id, &attempt);
    auto log = [&](char what) {
      char line[96];
      const int n = std::snprintf(line, sizeof(line), "%c %d %d %.6f\n", what,
                                  id, attempt, mono_now());
      const int fd = open(log_path.c_str(), O_WRONLY | O_APPEND | O_CREAT,
                          0644);
      if (fd >= 0) {
        (void)!write(fd, line, static_cast<std::size_t>(n));
        close(fd);
      }
    };
    log('S');
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (std::strcmp(kind, "kill") == 0) raise(SIGKILL);
    if (std::strcmp(kind, "hang") == 0) {
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    log('M');
    WorkerPool::mark_measured();
    if (std::strcmp(kind, "late") == 0) {
      // Long enough for the other worker to take the slot first.
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
      raise(SIGKILL);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return "done";
  };
  // Supervisor-side time at which each failed attempt gave up its slot.
  std::map<std::pair<int, int>, double> failed_at;
  std::size_t completed = 0;
  client.on_result = [&](const Job&, const std::string&) {
    ++completed;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job& job, const JobFailure& f) {
    failed_at[{static_cast<int>(job.id), attempts[job.id]}] = mono_now();
    if (job.id == 3) {
      EXPECT_EQ(f.reason, FailReason::DeadlineKilled);
      return Disposition::Done;
    }
    EXPECT_TRUE(job.id == 1 || job.id == 5) << "job " << job.id;
    EXPECT_EQ(f.reason, FailReason::WorkerDied);
    return Disposition::Retry;
  };

  // A slot that a failure never frees stalls run() for good; the alarm
  // turns that into an Interrupted outcome instead of a hung test. (Not a
  // watchdog thread: forking a multi-threaded parent breaks under TSan.)
  struct sigaction on_alarm;
  memset(&on_alarm, 0, sizeof(on_alarm));
  on_alarm.sa_handler = [](int) { sandbox::request_interrupt(SIGALRM); };
  sigemptyset(&on_alarm.sa_mask);
  struct sigaction old_alarm;
  sigaction(SIGALRM, &on_alarm, &old_alarm);
  alarm(30);
  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= kJobs) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });
  alarm(0);
  sigaction(SIGALRM, &old_alarm, nullptr);

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(completed, kJobs - 1);  // all but the hung job, retries included
  EXPECT_EQ(failed_at.size(), 3u);
  EXPECT_EQ(attempts[1], 2);
  EXPECT_EQ(attempts[5], 2);
  EXPECT_GE(pool.stats().deadline_kills, 1u);
  EXPECT_GE(pool.stats().recycles, 3u);
  EXPECT_EQ(pool.stats().peak_measuring, 1u);

  std::map<std::pair<int, int>, Interval> measured;
  std::ifstream is(log_path);
  char what = 0;
  int id = 0;
  int attempt = 0;
  double t = 0.0;
  while (is >> what >> id >> attempt >> t) {
    Interval& iv = measured[{id, attempt}];
    (what == 'S' ? iv.first : iv.second) = t;
  }
  std::filesystem::remove(log_path);
  for (auto& [key, iv] : measured) {
    if (iv.second == 0.0) {
      // Never marked: the slot was held until the failure freed it.
      const auto f = failed_at.find(key);
      ASSERT_NE(f, failed_at.end())
          << "job " << key.first << " attempt " << key.second
          << " neither marked nor failed";
      iv.second = f->second;
    }
  }
  EXPECT_EQ(measured.size(), kJobs + 2);  // every attempt, both retries
  std::vector<Interval> all;
  for (const auto& [key, iv] : measured) all.push_back(iv);
  EXPECT_EQ(count_overlaps(all), 0u) << "two jobs measured at once";
  expect_no_children();
}

// ------------------------------------------------- pool: fork degradation

TEST_F(PoolTest, UnspawnablePoolReportsSpawnFailed) {
  sandbox::pool_testing::fail_next_forks(-1);  // every fork fails
  PoolConfig cfg;
  cfg.workers = 2;
  cfg.respawn_backoff_ms = 1;
  PoolClient client;
  client.before_dispatch = [](Job& job) { job.payload = "x"; };
  client.run_job = [](const std::string& p) { return p; };
  std::atomic<int> callbacks{0};
  client.on_result = [&](const Job&, const std::string&) {
    ++callbacks;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure&) {
    ++callbacks;
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= 3) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::SpawnFailed);
  // Jobs the client never saw a callback for were not executed — the
  // caller can re-run them (the executor does so in-process).
  EXPECT_EQ(callbacks.load(), 0);
  EXPECT_GE(pool.stats().spawn_failures, 1u);
  EXPECT_EQ(pool.stats().spawns, 0u);
  expect_no_children();
}

// ----------------------------------------------- run params (CLI flags)

TEST_F(PoolTest, RunParamsParsePoolFlags) {
  const char* argv[] = {"prog", "--workers", "4",
                        "--heartbeat-interval-ms", "50",
                        "--heartbeat-timeout-ms", "900"};
  const RunParams p = RunParams::parse(7, argv);
  EXPECT_EQ(p.workers, 4);
  EXPECT_EQ(p.heartbeat_interval_ms, 50);
  EXPECT_EQ(p.heartbeat_timeout_ms, 900);
  // --workers alone implies cell isolation.
  EXPECT_EQ(p.isolate, IsolationMode::Cell);

  const char* bad[] = {"prog", "--workers", "-1"};
  EXPECT_THROW(RunParams::parse(3, bad), std::invalid_argument);
  const char* badhb[] = {"prog", "--heartbeat-timeout-ms", "0"};
  EXPECT_THROW(RunParams::parse(3, badhb), std::invalid_argument);
}

TEST_F(PoolTest, WireFaultKindsParseAndFire) {
  const auto specs = faults::Injector::parse("hbdrop@K:1,protocorrupt@*");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].kind, faults::FaultKind::HeartbeatDrop);
  EXPECT_EQ(specs[1].kind, faults::FaultKind::ProtocolCorrupt);
  EXPECT_TRUE(faults::is_process_fatal(faults::FaultKind::HeartbeatDrop));
  EXPECT_TRUE(faults::is_process_fatal(faults::FaultKind::ProtocolCorrupt));

  auto& inj = faults::injector();
  inj.configure("hbdrop@K:1", 7u);
  // Wire faults fire only via the explicit query, never via on_lifecycle.
  inj.on_lifecycle("K");
  EXPECT_EQ(inj.specs()[0].budget, 1);
  EXPECT_TRUE(inj.fire_wire_fault(faults::FaultKind::HeartbeatDrop, "K"));
  EXPECT_FALSE(inj.fire_wire_fault(faults::FaultKind::HeartbeatDrop, "K"));
  EXPECT_FALSE(inj.fire_wire_fault(faults::FaultKind::ProtocolCorrupt, "K"));
}

// ------------------------------------------- executor: pooled execution

TEST_F(PoolTest, PooledSweepIsBitIdenticalToInProcess) {
  // Pooled FIRST: the in-process half would warm an OpenMP pool the fork
  // must never inherit.
  RunParams p = pooled_params();
  Executor pooled(p);
  pooled.run();
  EXPECT_TRUE(pooled.all_passed());

  p.isolate = IsolationMode::None;
  p.workers = 0;
  Executor inproc(p);
  inproc.run();
  EXPECT_TRUE(inproc.all_passed());

  ASSERT_EQ(pooled.results().size(), inproc.results().size());
  for (const auto& r : inproc.results()) {
    const RunResult* q = find_cell(pooled, r.kernel, r.variant);
    ASSERT_NE(q, nullptr) << r.kernel;
    EXPECT_EQ(q->checksum, r.checksum) << r.kernel;  // bit-identical
    EXPECT_EQ(q->problem_size, r.problem_size) << r.kernel;
    EXPECT_EQ(q->reps, r.reps) << r.kernel;
  }
  EXPECT_GE(pooled.pool_stats().spawns, 1u);
  EXPECT_FALSE(pooled.degraded());
  expect_no_children();
}

TEST_F(PoolTest, PooledSegvIsRecycledRetriedAndBitIdentical) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_pool_segv";
  std::filesystem::remove_all(dir);

  RunParams p = pooled_params();
  p.retries = 1;
  p.fault_spec = "segv@Basic_DAXPY:1";
  p.output_dir = dir.string();
  Executor exec(p);
  exec.run();

  // The crash consumed the fault budget; the retry on a fresh worker
  // passed, and the sweep lost nothing.
  EXPECT_TRUE(exec.all_passed());
  const RunResult* daxpy =
      find_cell(exec, "Basic_DAXPY", VariantID::Base_Seq);
  ASSERT_NE(daxpy, nullptr);
  EXPECT_EQ(daxpy->attempts, 2);
  EXPECT_GE(exec.pool_stats().recycles, 1u);

  // Forensics recorded the recycle with its pool-level reason.
  std::ifstream is((dir / "crashes.jsonl").string());
  std::string line;
  bool saw_crash = false;
  while (std::getline(is, line)) {
    const json::Value v = json::Value::parse(line);
    if (v.string_or("kind", "") == "crash" &&
        v.string_or("kernel", "") == "Basic_DAXPY") {
      saw_crash = true;
      EXPECT_EQ(v.string_or("reason", ""), "worker-died");
      EXPECT_EQ(v.string_or("signal_name", ""), "SIGSEGV");
    }
  }
  EXPECT_TRUE(saw_crash);

  // Bit-identical to a clean in-process run, crash and retry included.
  faults::injector().reset();
  RunParams q = pooled_params();
  q.isolate = IsolationMode::None;
  q.workers = 0;
  Executor inproc(q);
  inproc.run();
  const RunResult* ref = find_cell(inproc, "Basic_DAXPY", VariantID::Base_Seq);
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(daxpy->checksum, ref->checksum);

  expect_no_children();
  std::filesystem::remove_all(dir);
}

TEST_F(PoolTest, PooledHeartbeatDropIsDetectedAndRetried) {
  RunParams p = pooled_params();
  p.kernel_filter = {"Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.retries = 1;
  p.fault_spec = "hbdrop@Stream_TRIAD:1";
  p.heartbeat_interval_ms = 20;
  p.heartbeat_timeout_ms = 300;
  Executor exec(p);
  exec.run();

  EXPECT_TRUE(exec.all_passed());
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].attempts, 2);
  EXPECT_GE(exec.pool_stats().heartbeat_timeouts, 1u);
  expect_no_children();
}

TEST_F(PoolTest, PooledProtocolCorruptionIsDetectedAndRetried) {
  RunParams p = pooled_params();
  p.kernel_filter = {"Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.retries = 1;
  p.fault_spec = "protocorrupt@Stream_TRIAD:1";
  Executor exec(p);
  exec.run();

  EXPECT_TRUE(exec.all_passed());
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].attempts, 2);
  EXPECT_GE(exec.pool_stats().corrupt_frames, 1u);
  EXPECT_GE(exec.pool_stats().recycles, 1u);
  expect_no_children();
}

TEST_F(PoolTest, PooledCrashLoopIsQuarantined) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_pool_quarantine";
  std::filesystem::remove_all(dir);

  RunParams p = pooled_params();
  p.kernel_filter = {"Basic_DAXPY", "Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.retries = 5;
  p.quarantine_after = 2;
  p.fault_spec = "segv@Basic_DAXPY";  // unlimited: every attempt crashes
  p.output_dir = dir.string();
  Executor exec(p);
  exec.run();

  // The circuit breaker opened after 2 worker kills; retries stopped even
  // though the budget allowed 5, and the healthy kernel was untouched.
  const RunResult* daxpy =
      find_cell(exec, "Basic_DAXPY", VariantID::Base_Seq);
  ASSERT_NE(daxpy, nullptr);
  EXPECT_EQ(daxpy->status, RunStatus::Crashed);
  EXPECT_EQ(daxpy->attempts, 2);
  const RunResult* triad =
      find_cell(exec, "Stream_TRIAD", VariantID::Base_Seq);
  ASSERT_NE(triad, nullptr);
  EXPECT_EQ(triad->status, RunStatus::Passed);

  std::ifstream is((dir / "crashes.jsonl").string());
  std::string line;
  bool quarantined = false;
  while (std::getline(is, line)) {
    const json::Value v = json::Value::parse(line);
    quarantined = quarantined || v.bool_or("quarantined", false);
  }
  EXPECT_TRUE(quarantined);

  expect_no_children();
  std::filesystem::remove_all(dir);
}

TEST_F(PoolTest, PooledForkFailureDegradesToInProcess) {
  sandbox::pool_testing::fail_next_forks(-1);
  RunParams p = pooled_params();
  Executor exec(p);
  exec.run();
  sandbox::pool_testing::fail_next_forks(0);

  // Every cell still ran — in-process, with the degradation recorded.
  EXPECT_TRUE(exec.all_passed());
  EXPECT_TRUE(exec.degraded());
  EXPECT_EQ(exec.pool_stats().spawns, 0u);
  EXPECT_GE(exec.pool_stats().spawn_failures, 1u);
  expect_no_children();
}

// --------------------------------------------- torn-sidecar robustness

TEST_F(PoolTest, TruncatedCrashRecordWarnsAndCountingStaysConservative) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_pool_torncrash";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Two intact crash records push the cell to the quarantine threshold;
  // the torn third record must be warned about and dropped, not crash the
  // loader or corrupt the counts.
  {
    std::ofstream os((dir / "crashes.jsonl").string());
    const char* rec =
        "{\"kind\":\"crash\",\"kernel\":\"Basic_DAXPY\","
        "\"variant\":\"Base_Seq\",\"tuning\":\"default\","
        "\"status\":\"Crashed\",\"signal\":11}";
    os << rec << "\n" << rec << "\n";
    os << "{\"kind\":\"crash\",\"kernel\":\"Basic_DA";  // torn mid-append
  }
  std::ofstream((dir / "progress.jsonl").string());  // empty checkpoint

  RunParams p = pooled_params();
  p.kernel_filter = {"Basic_DAXPY"};
  p.variant_filter = {VariantID::Base_Seq};
  p.quarantine_after = 2;
  p.resume = true;
  p.output_dir = dir.string();

  ::testing::internal::CaptureStderr();
  Executor exec(p);
  exec.run();
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_NE(err.find("dropping truncated crash record"), std::string::npos)
      << err;
  // The two intact records still counted: the cell is quarantine-skipped.
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Skipped);
  EXPECT_NE(exec.results()[0].error.find("quarantined"), std::string::npos);

  expect_no_children();
  std::filesystem::remove_all(dir);
}

TEST_F(PoolTest, TruncatedProgressRecordWarnsOnPooledResume) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_pool_tornprogress";
  std::filesystem::remove_all(dir);

  RunParams p = pooled_params();
  p.kernel_filter = {"Basic_DAXPY", "Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.output_dir = dir.string();
  {
    Executor exec(p);
    exec.run();
    EXPECT_TRUE(exec.all_passed());
  }
  // Chop the final checkpoint record mid-line, as a dying run would.
  const auto path = dir / "progress.jsonl";
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 20);

  p.resume = true;
  ::testing::internal::CaptureStderr();
  Executor exec(p);
  exec.run();
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_NE(err.find("dropping truncated checkpoint record"),
            std::string::npos)
      << err;
  EXPECT_TRUE(exec.all_passed());
  std::size_t restored = 0;
  for (const auto& r : exec.results()) restored += r.restored ? 1 : 0;
  EXPECT_EQ(restored, 1u);  // intact record restored, torn one re-ran

  expect_no_children();
  std::filesystem::remove_all(dir);
}

}  // namespace
