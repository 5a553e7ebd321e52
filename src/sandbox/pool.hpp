// rperf::sandbox::WorkerPool — the supervised worker pool, the one
// sandboxed execution engine.
//
// Cells that must not take the driver down with them (SIGSEGV, abort, OOM,
// hangs) run in forked worker processes, the pSTL-Bench practice of
// isolating each measurement in its own process. The pool keeps N workers
// and puts one supervisor — the caller's thread, running a
// single-threaded poll() event loop — in charge of every lifecycle
// decision:
//
//   * each worker walks the state machine
//       Spawning -> Idle -> Busy -> (Idle ...) -> Draining -> Dead
//     and everything the supervisor believes about it comes over CRC32
//     framed pipe records (protocol.hpp): hello, heartbeats, results;
//   * workers emit heartbeats from a dedicated thread; a worker that goes
//     silent past the heartbeat timeout (wedged, suppressed, or dead
//     without SIGCHLD delivery) is killed and recycled;
//   * per-job wall deadlines are enforced centrally (SIGTERM, grace,
//     SIGKILL);
//   * a worker that dies — crash, OOM, deadline, corrupt frame, lost
//     heartbeat — is reaped by a SIGCHLD-aware waitpid loop (no zombies)
//     and respawned with exponential backoff, up to a per-slot budget.
//     Budget and backoff count only consecutive deaths that resolved no
//     job: a result, or a failure the client settles as Done, resets
//     them, so a sweep of many crashing jobs keeps its containment;
//     the in-flight job is handed back to the client, which decides
//     Retry (requeued at the front, dispatched to a fresh worker) or Done;
//   * a job flagged Job::retire drains its worker once its result is in:
//     the worker says goodbye and exits cleanly, and the next job gets a
//     fresh process. A retirement is not a recycle: it spends no respawn
//     budget and waits for no backoff. One worker retired after every
//     cell (or after each kernel's last cell) is the disposable
//     per-cell/per-kernel isolation of `--isolate cell|kernel`;
//   * at most `max_inflight` jobs *measure* at once: a job holds a measure
//     slot from dispatch until its worker calls mark_measured() (or, if it
//     never does, until its result arrives), so timed work never shares
//     the machine while result encoding and transfer overlap the next job;
//   * the job queue is pull-based: the pool asks the client's `next_job`
//     source for work only when the bounded pending queue has room, so
//     producer memory is bounded by construction (backpressure);
//   * if no worker can ever be spawned (fork failure, respawn budget
//     exhausted with work remaining) run() returns SpawnFailed and the
//     caller degrades — e.g. to in-process execution — instead of
//     aborting the sweep;
//   * result and final payloads are opaque bytes to the pool. They travel
//     inline in the same CRC32 pipe frames as every other record: one
//     carrier, so a large result simply blocks its worker's write until
//     the supervisor's poll loop has read it.
//
// Workers are created by fork WITHOUT exec: the parent's warm kernel
// registry, parsed parameters, armed fault injector and wire dictionary
// are inherited by memory copy, so no argv marshalling layer exists to
// drift out of sync. The one obligation this places on callers: the
// parent must not have run OpenMP parallel regions before the pool
// forks (a forked copy of a live libgomp thread pool deadlocks). The
// supervisor itself stays single-threaded, so respawn forks are safe at
// any point.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "sandbox/sandbox.hpp"

namespace rperf::sandbox {

/// Supervisor-visible lifecycle of one worker slot.
enum class WorkerState {
  Spawning,  ///< forked, hello frame not yet seen
  Idle,      ///< hello validated, no job in flight
  Busy,      ///< a job frame was sent, result pending
  Draining,  ///< told to finish up (drain frame or deadline SIGTERM)
  Dead,      ///< reaped (or never successfully spawned)
};
[[nodiscard]] std::string to_string(WorkerState s);

/// Why an in-flight job came back without a result.
enum class FailReason {
  WorkerDied,        ///< worker exited/crashed on its own mid-job
  HeartbeatTimeout,  ///< no frame from the worker within the timeout
  DeadlineKilled,    ///< supervisor killed it past the per-job deadline
  ProtocolCorrupt,   ///< torn/corrupt frame on the result stream
};
[[nodiscard]] std::string to_string(FailReason r);

struct JobFailure {
  FailReason reason = FailReason::WorkerDied;
  bool exited = false;        ///< worker exited (vs. killed by a signal)
  int exit_code = 0;          ///< valid when exited
  int signal = 0;             ///< terminating signal when not exited
  WorkerUsage usage;          ///< rusage of the dead worker (when reaped)
  std::string stderr_tail;    ///< forensics tail captured from the worker
  /// One-line human description ("worker killed by SIGSEGV", ...).
  [[nodiscard]] std::string describe() const;
};

/// One unit of work. `payload` is opaque to the pool; the client encodes
/// whatever the worker-side `run_job` needs (and may refresh it in
/// `before_dispatch`, e.g. to carry up-to-date injector state).
struct Job {
  std::uint64_t id = 0;
  std::string payload;
  /// Dispatch-affinity key (0 = none). Jobs sharing a nonzero key prefer
  /// the worker that last ran that key, and a key "claimed" by a live
  /// worker is not spread across others while that worker can take it —
  /// so per-key warm state (allocator arenas, first-touched pages) is built
  /// once per pool instead of once per worker.
  std::uint64_t affinity = 0;
  /// Retire the worker once this job's result is in: it drains and exits
  /// cleanly, and the next job runs in a fresh process. Not a recycle: no
  /// respawn budget is spent and no backoff applies.
  bool retire = false;
};

/// Client verdict after a result or failure is delivered.
enum class Disposition {
  Done,   ///< job resolved; do not run it again
  Retry,  ///< requeue at the front, run on a (fresh) worker
  Abort,  ///< stop dispatching queued work; finish in-flight jobs, drain
};

struct PoolConfig {
  int workers = 2;
  /// Bounded pending queue; 0 means 2 * workers. Backpressure: next_job
  /// is only pulled when the queue has room.
  std::size_t queue_capacity = 0;
  int heartbeat_interval_ms = 100;   ///< worker-side beat period
  int heartbeat_timeout_ms = 2000;   ///< supervisor-side silence budget
  double job_deadline_sec = 0.0;     ///< per-job wall deadline; 0 = none
  int term_grace_ms = 2000;          ///< SIGTERM -> SIGKILL grace
  /// Per-slot budget of consecutive deaths without a resolved job (a
  /// result or a Done failure resets it); 0 = never respawn.
  int max_respawns = 8;
  int respawn_backoff_ms = 25;       ///< doubles per respawn, capped at 2 s
  /// rlimits applied to each worker as given. RLIMIT_CPU accrues over a
  /// worker's whole life, so cpu_seconds bounds a job only when its worker
  /// retires after it (Job::retire); leave it 0 for long-lived workers.
  Limits limits;
  /// Measure slots: cap on jobs *measuring* at once across the pool;
  /// 0 = workers (uncapped). A job measures from dispatch until its worker
  /// calls WorkerPool::mark_measured(), or until its result or failure if
  /// it never does, so a client that does not mark gets whole jobs capped.
  /// A job is dispatched only when a slot is free, never parked inside a
  /// worker, so deadlines and heartbeats time only its own work. With 1,
  /// timed work runs alone on the machine while other workers' post-mark
  /// tails (result encode, transfer, supervisor decode) overlap it; a hung
  /// job holds its slot until its deadline or heartbeat timeout. Workers
  /// beyond the cap stay resident as warm per-key partitions (see
  /// Job::affinity) and crash-containment spares.
  std::size_t max_inflight = 0;
};

struct PoolStats {
  std::size_t spawns = 0;            ///< successful forks (incl. respawns)
  std::size_t spawn_failures = 0;    ///< fork() failures
  std::size_t recycles = 0;          ///< abnormal deaths that freed a slot
  std::size_t heartbeats = 0;        ///< heartbeat frames received
  std::size_t heartbeat_timeouts = 0;
  std::size_t deadline_kills = 0;
  std::size_t corrupt_frames = 0;    ///< streams dropped on framing errors
  std::size_t jobs_dispatched = 0;   ///< job frames sent (incl. retries)
  std::size_t jobs_completed = 0;    ///< result frames accepted
  std::size_t jobs_failed = 0;       ///< failures handed to the client
  std::size_t peak_queue_depth = 0;  ///< high water of the pending queue
  std::size_t affinity_hits = 0;     ///< dispatches to the job's warm worker
  std::size_t peak_measuring = 0;    ///< high water of jobs holding a slot
  // Always 0 (every payload rides a pipe frame); kept only because
  // perfbench/driver.cpp reads them. Retires with the next benchmark change.
  std::size_t ring_fallbacks = 0;
  std::uint64_t ring_messages = 0;
  std::uint64_t ring_payload_bytes = 0;
  long peak_rss_kb = 0;              ///< max over reaped workers
  double child_user_sec = 0.0;       ///< summed over reaped workers
  double child_sys_sec = 0.0;
};

enum class PoolOutcome {
  Completed,    ///< source exhausted, every pulled job resolved or aborted
  Interrupted,  ///< sandbox::interrupt_signal() fired; workers killed
  SpawnFailed,  ///< could not keep any worker alive; degrade in-process
};

/// Client callbacks. The worker-side trio runs in the forked child; the
/// parent-side ones run on the supervisor thread inside run().
struct PoolClient {
  // ----- worker side (child process) -----
  /// Called once per worker right after fork (e.g. trace re-zeroing).
  std::function<void()> on_worker_start;
  /// Execute one job payload, return the result payload. Crashes, OOM and
  /// hangs here are what the pool exists to survive.
  std::function<std::string(const std::string& payload)> run_job;
  /// Called when the worker is drained; its return (e.g. a trace chunk)
  /// arrives at the parent as the "final" frame. Empty string to skip.
  std::function<std::string()> final_payload;

  // ----- parent side (supervisor thread) -----
  /// Refresh `job.payload` immediately before it is sent to a worker.
  /// This is the injector fold-back hook: retries must carry the *current*
  /// fault/budget state, not the state at enqueue time.
  std::function<void(Job& job)> before_dispatch;
  std::function<Disposition(const Job& job, const std::string& result)>
      on_result;
  std::function<Disposition(const Job& job, const JobFailure& failure)>
      on_failure;
  /// Receives each drained worker's final payload.
  std::function<void(const std::string& payload)> on_final;
};

class WorkerPool {
 public:
  WorkerPool(PoolConfig cfg, PoolClient client);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run the supervisor loop until `next_job` is exhausted and every
  /// pulled job has been resolved (result, terminal failure, or Abort).
  /// Jobs the client never saw a callback for were not executed.
  [[nodiscard]] PoolOutcome run(
      const std::function<std::optional<Job>()>& next_job);

  [[nodiscard]] const PoolStats& stats() const { return stats_; }

  // ----- worker-side controls (no-ops in the parent) ------------------
  /// Release the calling worker's measure slot: the rest of the current
  /// job (encoding its result, say) may overlap the next job's measured
  /// work. Sends one payload-free control frame; repeated calls within a
  /// job are no-ops.
  static void mark_measured();
  /// Stop the calling worker's heartbeat thread from beating. Models a
  /// live-but-silent worker; the supervisor must notice via timeout.
  static void suppress_heartbeats();
  /// Corrupt the calling worker's next result: its frame goes out with a
  /// flipped CRC, which the supervisor must detect and recycle the worker
  /// instead of mis-parsing.
  static void corrupt_next_frame();

 private:
  PoolConfig cfg_;
  PoolClient client_;
  PoolStats stats_;
};

namespace pool_testing {
/// Make the pool's next `n` fork() attempts fail (as if EAGAIN); pass a
/// negative n to make every attempt fail. Exercises the degradation path.
void fail_next_forks(int n);
}  // namespace pool_testing

}  // namespace rperf::sandbox
