#include "sandbox/pool.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "sandbox/protocol.hpp"
#include "sandbox/ring.hpp"

namespace rperf::sandbox {

namespace {

// Frame payloads are "<header line>\n<body>"; the header is space-separated
// words ("job 17", "hello 2 12345", "hb 42"). Deliberately not JSON: the
// pool sits below the instrumentation layer and the client's payloads are
// opaque bodies anyway.
struct Record {
  std::string type;
  std::uint64_t a = 0;  // id / proto / seq, depending on type
  std::uint64_t b = 0;  // pid for hello
  std::string body;
};

std::string record_encode(const std::string& header, const std::string& body) {
  std::string s = header;
  s += '\n';
  s += body;
  return s;
}

bool record_decode(const std::string& payload, Record& rec) {
  const std::size_t nl = payload.find('\n');
  const std::string header =
      nl == std::string::npos ? payload : payload.substr(0, nl);
  rec.body = nl == std::string::npos ? std::string() : payload.substr(nl + 1);
  char type[16] = {0};
  unsigned long long a = 0;
  unsigned long long b = 0;
  const int n = std::sscanf(header.c_str(), "%15s %llu %llu", type, &a, &b);
  if (n < 1) return false;
  rec.type = type;
  rec.a = a;
  rec.b = b;
  return true;
}

constexpr std::size_t kStderrTailMax = 4096;
constexpr int kRespawnBackoffCapMs = 2000;
/// Consecutive fork() failures with zero live workers before giving up.
constexpr int kForkFailuresBeforeDegrade = 3;

void append_tail(std::string& tail, const char* buf, std::size_t n) {
  tail.append(buf, n);
  if (tail.size() > kStderrTailMax) {
    tail.erase(0, tail.size() - kStderrTailMax);
  }
}

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// ----- worker-side process globals -----
// Valid only inside a forked worker. The write mutex serializes the main
// thread's result frames against the heartbeat thread's beats: a frame
// larger than PIPE_BUF is not written atomically by the kernel, so
// unsynchronized writers would interleave bytes and corrupt the stream.
std::mutex g_frame_write_mutex;
std::atomic<bool> g_hb_suppress{false};
std::atomic<bool> g_corrupt_next{false};
// The calling worker's shm data plane (null => Json transport). Set in
// the child between fork and worker_entry; only the worker main thread
// touches the ring (the heartbeat thread writes pipe frames only).
ShmRing* g_worker_ring = nullptr;
Doorbell* g_worker_doorbell = nullptr;
// The worker's result pipe and the job whose measure slot it still holds
// (main thread only; mark_measured releases the slot at most once).
int g_result_fd = -1;
std::uint64_t g_job_id = 0;
bool g_holds_slot = false;

bool write_frame(int fd, const std::string& payload, bool corrupt = false) {
  const std::string frame = frame_encode(payload, corrupt);
  std::lock_guard<std::mutex> lock(g_frame_write_mutex);
  return write_all(fd, frame.data(), frame.size());
}

// ----- SIGCHLD self-pipe -----
// The handler only writes one byte; the supervisor's poll() wakes and does
// the actual (non-signal-context) waitpid sweep. This is the single wait
// loop for pooled workers — no other code path reaps them, so none linger
// as zombies and none are stolen from other wait()ers.
int g_sigchld_pipe[2] = {-1, -1};

void sigchld_handler(int) {
  const int saved_errno = errno;
  if (g_sigchld_pipe[1] >= 0) {
    const char c = 'c';
    ssize_t ignored = write(g_sigchld_pipe[1], &c, 1);
    (void)ignored;
  }
  errno = saved_errno;
}

// ----- fork-failure test hook -----
std::atomic<int> g_fail_forks{0};

pid_t checked_fork() {
  int expected = g_fail_forks.load();
  while (expected != 0) {
    const int next = expected > 0 ? expected - 1 : expected;
    if (g_fail_forks.compare_exchange_weak(expected, next)) {
      errno = EAGAIN;
      return -1;
    }
  }
  return fork();
}

enum class FrameRead { Ok, Eof, Bad };

/// Blocking frame read for the worker's control pipe.
FrameRead read_frame_blocking(int fd, FrameReader& reader,
                              std::string& payload) {
  for (;;) {
    switch (reader.next(payload)) {
      case FrameReader::Status::Frame:
        return FrameRead::Ok;
      case FrameReader::Status::Corrupt:
        return FrameRead::Bad;
      case FrameReader::Status::NeedMore:
        break;
    }
    char buf[4096];
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      reader.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return FrameRead::Eof;
  }
}

/// The worker process: heartbeat thread + job loop. Never returns.
[[noreturn]] void worker_entry(const PoolConfig& cfg, const PoolClient& client,
                               int ctl_rd, int res_wr, int err_wr) {
  dup2(err_wr, 2);
  if (err_wr != 2) close(err_wr);
  signal(SIGINT, SIG_DFL);
  signal(SIGTERM, SIG_DFL);
  signal(SIGCHLD, SIG_DFL);
  // The parent may die or close our result pipe mid-write; we want EPIPE,
  // not sudden death, so the heartbeat thread can wind down.
  signal(SIGPIPE, SIG_IGN);
  Limits limits = cfg.limits;
  limits.cpu_seconds = 0.0;  // cumulative RLIMIT_CPU misfires on pooled work
  apply_worker_limits(limits);
  install_worker_crash_handlers();
  g_hb_suppress.store(false);
  g_corrupt_next.store(false);
  g_result_fd = res_wr;

  if (client.on_worker_start) client.on_worker_start();

  // The hello's version tells the supervisor which transport this worker
  // speaks: v3 descriptors+ring when a ring was inherited, v2 inline
  // payloads otherwise (ring setup failed for this slot).
  char hello[64];
  std::snprintf(hello, sizeof(hello), "hello %d %d",
                g_worker_ring != nullptr ? kProtocolVersionShm
                                         : kProtocolVersionFramed,
                static_cast<int>(getpid()));
  if (!write_frame(res_wr, hello)) _exit(1);

  // Heartbeat thread: one beat per interval until told to stop. The
  // condition variable makes shutdown prompt (no multi-interval lag).
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread hb_thread([&] {
    std::uint64_t seq = 0;
    std::unique_lock<std::mutex> lock(hb_mutex);
    for (;;) {
      hb_cv.wait_for(lock,
                     std::chrono::milliseconds(cfg.heartbeat_interval_ms));
      if (hb_stop) return;
      if (g_hb_suppress.load()) continue;
      char beat[32];
      std::snprintf(beat, sizeof(beat), "hb %llu",
                    static_cast<unsigned long long>(++seq));
      if (!write_frame(res_wr, beat)) return;  // parent gone
    }
  });
  auto stop_heartbeats = [&] {
    {
      std::lock_guard<std::mutex> lock(hb_mutex);
      hb_stop = true;
    }
    hb_cv.notify_all();
    hb_thread.join();
  };

  FrameReader reader;
  std::string payload;
  int exit_code = 0;
  try {
    for (;;) {
      const FrameRead st = read_frame_blocking(ctl_rd, reader, payload);
      if (st == FrameRead::Bad) {
        std::fprintf(stderr, "worker: corrupt control frame from parent\n");
        exit_code = 1;
        break;
      }
      if (st == FrameRead::Eof) break;  // parent closed: implicit drain
      Record rec;
      if (!record_decode(payload, rec)) {
        std::fprintf(stderr, "worker: unparseable control record\n");
        exit_code = 1;
        break;
      }
      if (rec.type == "job") {
        g_job_id = rec.a;
        g_holds_slot = true;
        const std::string result = client.run_job(rec.body);
        g_holds_slot = false;  // the result frame releases an unmarked slot
        const bool corrupt = g_corrupt_next.exchange(false);
        char header[48];
        if (g_worker_ring != nullptr) {
          // v3: publish the payload on the ring (release-ordered, so it
          // is visible before the descriptor below can be read), then
          // announce it with a payload-free descriptor frame.
          if (corrupt) g_worker_ring->corrupt_next_chunk();
          if (!g_worker_ring->write_message(result.data(), result.size(),
                                            g_worker_doorbell)) {
            exit_code = 1;
            break;
          }
          std::snprintf(header, sizeof(header), "result %llu %llu",
                        static_cast<unsigned long long>(rec.a),
                        static_cast<unsigned long long>(result.size()));
          if (!write_frame(res_wr, header)) {
            exit_code = 1;
            break;
          }
        } else {
          std::snprintf(header, sizeof(header), "result %llu",
                        static_cast<unsigned long long>(rec.a));
          if (!write_frame(res_wr, record_encode(header, result), corrupt)) {
            exit_code = 1;
            break;
          }
        }
      } else if (rec.type == "drain") {
        std::string fin;
        if (client.final_payload) fin = client.final_payload();
        if (!fin.empty()) {
          if (g_worker_ring != nullptr) {
            if (g_worker_ring->write_message(fin.data(), fin.size(),
                                             g_worker_doorbell)) {
              char fh[32];
              std::snprintf(fh, sizeof(fh), "final %llu",
                            static_cast<unsigned long long>(fin.size()));
              write_frame(res_wr, fh);
            }
          } else {
            write_frame(res_wr, record_encode("final", fin));
          }
        }
        write_frame(res_wr, "bye");
        break;
      }
    }
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "worker: std::bad_alloc escaped the job runner\n");
    fflush(nullptr);
    _exit(kOomExitCode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: unhandled exception: %s\n", e.what());
    fflush(nullptr);
    _exit(1);
  } catch (...) {
    std::fprintf(stderr, "worker: unhandled non-standard exception\n");
    fflush(nullptr);
    _exit(1);
  }
  stop_heartbeats();
  fflush(nullptr);
  _exit(exit_code);
}

}  // namespace

std::string to_string(WorkerState s) {
  switch (s) {
    case WorkerState::Spawning: return "spawning";
    case WorkerState::Idle: return "idle";
    case WorkerState::Busy: return "busy";
    case WorkerState::Draining: return "draining";
    case WorkerState::Dead: return "dead";
  }
  return "?";
}

std::string to_string(FailReason r) {
  switch (r) {
    case FailReason::WorkerDied: return "worker-died";
    case FailReason::HeartbeatTimeout: return "heartbeat-timeout";
    case FailReason::DeadlineKilled: return "deadline";
    case FailReason::ProtocolCorrupt: return "protocol-corrupt";
  }
  return "?";
}

std::string JobFailure::describe() const {
  switch (reason) {
    case FailReason::WorkerDied:
      if (exited && exit_code == kOomExitCode) {
        return "worker out of memory (exit code " +
               std::to_string(exit_code) + ")";
      }
      if (exited) {
        return "worker exited with code " + std::to_string(exit_code);
      }
      return "worker killed by " + signal_name(signal);
    case FailReason::HeartbeatTimeout:
      return "worker heartbeat lost (silent past the timeout)";
    case FailReason::DeadlineKilled:
      return "worker killed past the per-job wall deadline";
    case FailReason::ProtocolCorrupt:
      return "corrupt frame on the worker's result stream";
  }
  return "?";
}

std::string to_string(Transport t) {
  switch (t) {
    case Transport::Shm: return "shm";
    case Transport::Json: return "json";
  }
  return "?";
}

void WorkerPool::mark_measured() {
  if (g_result_fd < 0 || !g_holds_slot) return;
  g_holds_slot = false;
  char mark[32];
  std::snprintf(mark, sizeof(mark), "mark %llu",
                static_cast<unsigned long long>(g_job_id));
  write_frame(g_result_fd, mark);  // a dead parent surfaces at the result
}

void WorkerPool::suppress_heartbeats() { g_hb_suppress.store(true); }

void WorkerPool::corrupt_next_frame() { g_corrupt_next.store(true); }

Transport WorkerPool::current_transport() {
  return g_worker_ring != nullptr ? Transport::Shm : Transport::Json;
}

namespace pool_testing {
void fail_next_forks(int n) { g_fail_forks.store(n); }
}  // namespace pool_testing

WorkerPool::WorkerPool(PoolConfig cfg, PoolClient client)
    : cfg_(std::move(cfg)), client_(std::move(client)) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.queue_capacity == 0) {
    cfg_.queue_capacity = static_cast<std::size_t>(cfg_.workers) * 2;
  }
}

WorkerPool::~WorkerPool() = default;

PoolOutcome WorkerPool::run(
    const std::function<std::optional<Job>()>& next_job) {
  struct Slot {
    pid_t pid = -1;
    int ctl_wr = -1;   // parent -> worker control frames
    int res_rd = -1;   // worker -> parent result/heartbeat frames
    int err_rd = -1;   // worker stderr (forensics tail)
    WorkerState state = WorkerState::Dead;
    FrameReader reader;
    std::string stderr_tail;
    std::optional<Job> job;
    bool measuring = false;   // job holds a measure slot (until its mark)
    double last_beat = 0.0;   // any frame counts as liveness
    double busy_since = 0.0;
    double drain_at = 0.0;    // when Draining started (drain stall guard)
    bool ignore_frames = false;  // stream condemned (kill pending)
    bool expect_clean_exit = false;
    bool sent_term = false;
    double term_at = 0.0;
    bool sent_kill = false;
    int respawns = 0;
    double next_spawn_at = 0.0;
    // v3 data plane (null => this incarnation speaks v2 inline payloads).
    // A fresh ring per spawn: chunk sequence numbers restart at zero on
    // both sides, so a respawned worker cannot trip the torn-write check.
    std::unique_ptr<ShmRing> ring;
    std::unique_ptr<Doorbell> doorbell;
    std::string ring_partial;            // chunks of the in-flight message
    std::deque<std::string> ring_msgs;   // completed, undelivered payloads
    std::uint64_t last_affinity = 0;     // survives recycling (warm dataset
                                         // keys die with the worker, but a
                                         // respawn refills fastest with the
                                         // same key's remaining jobs)
  };

  stats_ = PoolStats{};
  std::vector<Slot> slots(static_cast<std::size_t>(cfg_.workers));
  std::deque<Job> queue;
  bool source_done = false;
  bool aborting = false;
  bool interrupted = false;
  double interrupt_term_at = 0.0;
  int consecutive_fork_failures = 0;
  std::size_t spread_cursor = 0;  // where dispatch pass 2 starts its scan

  // Scoped signal plumbing: SIGCHLD self-pipe wakeup, SIGPIPE ignored (a
  // worker dying between poll() and our write must surface as EPIPE, not
  // kill the driver). Both restored on every exit path below.
  if (pipe(g_sigchld_pipe) != 0) {
    g_sigchld_pipe[0] = g_sigchld_pipe[1] = -1;
  } else {
    set_nonblocking(g_sigchld_pipe[0]);
    set_nonblocking(g_sigchld_pipe[1]);
  }
  struct sigaction old_chld;
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = sigchld_handler;
  sa.sa_flags = SA_RESTART | SA_NOCLDSTOP;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGCHLD, &sa, &old_chld);
  struct sigaction old_pipe;
  struct sigaction ign;
  memset(&ign, 0, sizeof(ign));
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  sigaction(SIGPIPE, &ign, &old_pipe);

  auto cleanup_signals = [&] {
    sigaction(SIGCHLD, &old_chld, nullptr);
    sigaction(SIGPIPE, &old_pipe, nullptr);
    for (int& fd : g_sigchld_pipe) {
      if (fd >= 0) close(fd);
      fd = -1;
    }
  };

  auto close_slot_fds = [](Slot& s) {
    for (int* fd : {&s.ctl_wr, &s.res_rd, &s.err_rd}) {
      if (*fd >= 0) close(*fd);
      *fd = -1;
    }
  };

  auto live = [&slots] {
    std::size_t n = 0;
    for (const Slot& s : slots) {
      if (s.state != WorkerState::Dead) ++n;
    }
    return n;
  };

  auto spawn = [&](Slot& s) -> bool {
    int ctl[2];
    int res[2];
    int err[2];
    if (pipe(ctl) != 0) return false;
    if (pipe(res) != 0) {
      close(ctl[0]);
      close(ctl[1]);
      return false;
    }
    if (pipe(err) != 0) {
      close(ctl[0]);
      close(ctl[1]);
      close(res[0]);
      close(res[1]);
      return false;
    }
    // The data plane must exist before fork so the worker inherits the
    // mapping. A fresh ring per incarnation keeps both sides' sequence
    // counters in lockstep from zero. Failure is not fatal: the slot
    // degrades to inline v2 payloads and says so in the stats.
    std::unique_ptr<ShmRing> ring;
    std::unique_ptr<Doorbell> doorbell;
    if (cfg_.transport == Transport::Shm) {
      ring = ShmRing::create(cfg_.ring_bytes);
      if (ring) doorbell = Doorbell::create();
      if (!ring || !doorbell) {
        ring.reset();
        doorbell.reset();
        ++stats_.ring_fallbacks;
      }
    }
    fflush(nullptr);
    const pid_t pid = checked_fork();
    if (pid < 0) {
      for (int fd : {ctl[0], ctl[1], res[0], res[1], err[0], err[1]}) {
        close(fd);
      }
      ++stats_.spawn_failures;
      return false;
    }
    if (pid == 0) {
      // ----- worker -----
      close(ctl[1]);
      close(res[0]);
      close(err[0]);
      if (g_sigchld_pipe[0] >= 0) close(g_sigchld_pipe[0]);
      if (g_sigchld_pipe[1] >= 0) close(g_sigchld_pipe[1]);
      // worker_entry never returns, so these locals never destruct and
      // the inherited mapping stays valid for the worker's life.
      g_worker_ring = ring.get();
      g_worker_doorbell = doorbell.get();
      worker_entry(cfg_, client_, ctl[0], res[1], err[1]);
    }
    // ----- supervisor -----
    close(ctl[0]);
    close(res[1]);
    close(err[1]);
    set_nonblocking(res[0]);
    set_nonblocking(err[0]);
    const std::uint64_t kept_affinity = s.last_affinity;
    s = Slot{};  // fresh incarnation, but keep the slot's respawn history
    s.pid = pid;
    s.ctl_wr = ctl[1];
    s.res_rd = res[0];
    s.err_rd = err[0];
    s.ring = std::move(ring);
    s.doorbell = std::move(doorbell);
    s.last_affinity = kept_affinity;
    s.state = WorkerState::Spawning;
    s.last_beat = now_sec();
    ++stats_.spawns;
    if (s.ring) ++stats_.shm_spawns;
    consecutive_fork_failures = 0;
    return true;
  };

  auto schedule_respawn = [&](Slot& s) {
    ++s.respawns;
    const int shift = s.respawns > 6 ? 6 : s.respawns - 1;
    const int backoff = cfg_.respawn_backoff_ms << shift;
    s.next_spawn_at =
        now_sec() +
        (backoff > kRespawnBackoffCapMs ? kRespawnBackoffCapMs : backoff) /
            1000.0;
  };

  auto handle_disposition = [&](Disposition d, Job&& job, bool retry_front) {
    if (d == Disposition::Retry) {
      if (retry_front) {
        queue.push_front(std::move(job));
      } else {
        queue.push_back(std::move(job));
      }
    } else if (d == Disposition::Abort) {
      aborting = true;
      queue.clear();
    }
  };

  auto fail_job = [&](Slot& s, JobFailure f) {
    if (!s.job) return;
    f.stderr_tail = s.stderr_tail;
    Job job = std::move(*s.job);
    s.job.reset();
    s.measuring = false;
    ++stats_.jobs_failed;
    Disposition d = Disposition::Done;
    if (client_.on_failure) d = client_.on_failure(job, f);
    handle_disposition(d, std::move(job), /*retry_front=*/true);
  };

  /// Condemn a live worker: SIGKILL now, surface the in-flight job (if
  /// any) with `reason`, ignore whatever else its stream says.
  auto condemn = [&](Slot& s, FailReason reason) {
    if (s.pid > 0) kill(s.pid, SIGKILL);
    s.ignore_frames = true;
    s.state = WorkerState::Draining;
    s.drain_at = now_sec();
    s.sent_kill = true;
    JobFailure jf;
    jf.reason = reason;
    fail_job(s, jf);
  };

  /// Pull every published chunk out of a slot's ring: partial messages
  /// accumulate in ring_partial (freeing ring space for a blocked
  /// writer), completed ones queue in ring_msgs until their descriptor
  /// frame claims them. A sequence/magic/length violation condemns the
  /// worker exactly like a corrupt frame.
  auto drain_ring = [&](Slot& s) {
    if (!s.ring || s.ignore_frames) return;
    for (;;) {
      bool more = false;
      const ShmRing::ReadStatus st = s.ring->read_chunk(s.ring_partial, more);
      if (st == ShmRing::ReadStatus::None) break;
      if (st == ShmRing::ReadStatus::Corrupt) {
        ++stats_.corrupt_frames;
        condemn(s, FailReason::ProtocolCorrupt);
        return;
      }
      if (!more) {
        ++stats_.ring_messages;
        stats_.ring_payload_bytes += s.ring_partial.size();
        s.ring_msgs.push_back(std::move(s.ring_partial));
        s.ring_partial.clear();
      }
    }
  };

  /// Claim the ring payload a v3 descriptor frame announced. The worker
  /// publishes the full message before writing the descriptor, so by the
  /// time the descriptor is being handled every chunk is visible; an
  /// empty queue or a size mismatch can only be corruption.
  auto take_ring_payload = [&](Slot& s, std::uint64_t nbytes,
                               std::string& out) -> bool {
    drain_ring(s);
    if (s.ignore_frames) return false;  // ring latched corrupt mid-drain
    if (s.ring_msgs.empty() || s.ring_msgs.front().size() != nbytes) {
      ++stats_.corrupt_frames;
      condemn(s, FailReason::ProtocolCorrupt);
      return false;
    }
    out = std::move(s.ring_msgs.front());
    s.ring_msgs.pop_front();
    return true;
  };

  auto send_drain = [&](Slot& s) {
    s.state = WorkerState::Draining;
    s.drain_at = now_sec();
    s.expect_clean_exit = true;
    const std::string frame = frame_encode("drain");
    if (!write_all(s.ctl_wr, frame.data(), frame.size())) {
      // Worker already died; the reap path will sort it out.
    }
  };

  auto handle_frame = [&](Slot& s, const std::string& payload) {
    s.last_beat = now_sec();
    if (s.ignore_frames) return;
    Record rec;
    if (!record_decode(payload, rec)) {
      ++stats_.corrupt_frames;
      condemn(s, FailReason::ProtocolCorrupt);
      return;
    }
    if (rec.type == "hello") {
      // The worker's claimed version must match the transport this slot
      // actually set up (v3 with a ring, v2 without).
      const int expected = s.ring ? kProtocolVersionShm
                                  : kProtocolVersionFramed;
      if (static_cast<int>(rec.a) != expected ||
          s.state != WorkerState::Spawning) {
        ++stats_.corrupt_frames;
        condemn(s, FailReason::ProtocolCorrupt);
        return;
      }
      s.state = WorkerState::Idle;
    } else if (rec.type == "hb") {
      ++stats_.heartbeats;
    } else if (rec.type == "mark") {
      if (s.state != WorkerState::Busy || !s.job || s.job->id != rec.a) {
        ++stats_.corrupt_frames;
        condemn(s, FailReason::ProtocolCorrupt);
        return;
      }
      s.measuring = false;
    } else if (rec.type == "result") {
      if (s.state != WorkerState::Busy || !s.job || s.job->id != rec.a) {
        ++stats_.corrupt_frames;
        condemn(s, FailReason::ProtocolCorrupt);
        return;
      }
      std::string body;
      if (s.ring) {
        if (!take_ring_payload(s, rec.b, body)) return;
      } else {
        body = std::move(rec.body);
      }
      Job job = std::move(*s.job);
      s.job.reset();
      s.measuring = false;
      s.state = WorkerState::Idle;
      ++stats_.jobs_completed;
      Disposition d = Disposition::Done;
      if (client_.on_result) d = client_.on_result(job, body);
      handle_disposition(d, std::move(job), /*retry_front=*/true);
    } else if (rec.type == "final") {
      std::string body;
      if (s.ring) {
        if (!take_ring_payload(s, rec.a, body)) return;
      } else {
        body = std::move(rec.body);
      }
      if (client_.on_final) client_.on_final(body);
    } else if (rec.type == "bye") {
      // Clean shutdown acknowledged; reap finishes the slot.
    } else {
      ++stats_.corrupt_frames;
      condemn(s, FailReason::ProtocolCorrupt);
    }
  };

  /// Drain every readable byte from a slot's pipes; dispatch frames.
  auto read_slot = [&](Slot& s) {
    char buf[4096];
    if (s.res_rd >= 0) {
      for (;;) {
        const ssize_t n = read(s.res_rd, buf, sizeof(buf));
        if (n > 0) {
          s.reader.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                      errno == EINTR)) {
          break;
        }
        break;  // EOF or hard error: reap will follow via SIGCHLD
      }
      std::string payload;
      for (;;) {
        const FrameReader::Status st = s.reader.next(payload);
        if (st == FrameReader::Status::Frame) {
          handle_frame(s, payload);
          if (s.ignore_frames) break;
          continue;
        }
        if (st == FrameReader::Status::Corrupt && !s.ignore_frames) {
          ++stats_.corrupt_frames;
          condemn(s, FailReason::ProtocolCorrupt);
        }
        break;
      }
    }
    if (s.err_rd >= 0) {
      for (;;) {
        const ssize_t n = read(s.err_rd, buf, sizeof(buf));
        if (n > 0) {
          append_tail(s.stderr_tail, buf, static_cast<std::size_t>(n));
          continue;
        }
        break;
      }
    }
  };

  /// The single wait loop (satellite: zombie-free operation). Reaps every
  /// dead pooled worker, folds rusage into stats, surfaces in-flight jobs.
  auto reap = [&] {
    for (;;) {
      int status = 0;
      rusage ru;
      memset(&ru, 0, sizeof(ru));
      const pid_t pid = wait4(-1, &status, WNOHANG, &ru);
      if (pid <= 0) break;
      Slot* slot = nullptr;
      for (Slot& s : slots) {
        if (s.pid == pid) {
          slot = &s;
          break;
        }
      }
      if (slot == nullptr) continue;  // not ours (defensive)
      Slot& s = *slot;
      read_slot(s);  // final frames may have raced the exit
      WorkerUsage usage;
      usage.max_rss_kb = ru.ru_maxrss;
      usage.user_sec = static_cast<double>(ru.ru_utime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
      usage.sys_sec = static_cast<double>(ru.ru_stime.tv_sec) +
                      static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
      if (usage.max_rss_kb > stats_.peak_rss_kb) {
        stats_.peak_rss_kb = usage.max_rss_kb;
      }
      stats_.child_user_sec += usage.user_sec;
      stats_.child_sys_sec += usage.sys_sec;

      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (s.job) {
        // Child-initiated death mid-job: crash, OOM exit, SIGXCPU, ...
        JobFailure f;
        f.reason = FailReason::WorkerDied;
        f.exited = WIFEXITED(status);
        f.exit_code = f.exited ? WEXITSTATUS(status) : 0;
        f.signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        f.usage = usage;
        fail_job(s, f);
      }
      const bool abnormal = !(clean && s.expect_clean_exit);
      if (abnormal && !interrupted) {
        ++stats_.recycles;
        schedule_respawn(s);
      }
      close_slot_fds(s);
      s.pid = -1;
      s.state = WorkerState::Dead;
      s.ignore_frames = false;
      s.expect_clean_exit = false;
      // The data plane dies with the incarnation (read_slot above already
      // claimed any final payloads that raced the exit).
      s.ring.reset();
      s.doorbell.reset();
      s.ring_partial.clear();
      s.ring_msgs.clear();
    }
  };

  auto work_remaining = [&] {
    if (!queue.empty()) return true;
    if (!source_done && !aborting) return true;
    for (const Slot& s : slots) {
      if (s.job) return true;
    }
    return false;
  };

  PoolOutcome outcome = PoolOutcome::Completed;

  for (;;) {
    // Interrupt: stop everything; in-flight jobs go unresolved (the
    // caller marks them skipped), workers get SIGTERM then SIGKILL.
    if (!interrupted && interrupt_signal() != 0) {
      interrupted = true;
      aborting = true;
      queue.clear();
      interrupt_term_at = now_sec();
      for (Slot& s : slots) {
        if (s.pid > 0) kill(s.pid, SIGTERM);
        s.ignore_frames = true;
        s.job.reset();
        s.measuring = false;
        if (s.state != WorkerState::Dead) {
          s.state = WorkerState::Draining;
          s.drain_at = interrupt_term_at;
        }
      }
    }
    if (interrupted) {
      const double waited_ms = (now_sec() - interrupt_term_at) * 1000.0;
      if (waited_ms > static_cast<double>(cfg_.term_grace_ms)) {
        for (Slot& s : slots) {
          if (s.pid > 0 && !s.sent_kill) {
            kill(s.pid, SIGKILL);
            s.sent_kill = true;
          }
        }
      }
    }

    // Backpressure: pull new jobs only while the bounded queue has room.
    while (!source_done && !aborting &&
           queue.size() < cfg_.queue_capacity) {
      std::optional<Job> j = next_job();
      if (!j) {
        source_done = true;
        break;
      }
      queue.push_back(std::move(*j));
      if (queue.size() > stats_.peak_queue_depth) {
        stats_.peak_queue_depth = queue.size();
      }
    }

    if (!work_remaining()) {
      // Drain whoever is still up, then wait for the reaps.
      bool any_live = false;
      for (Slot& s : slots) {
        if (s.state == WorkerState::Idle) send_drain(s);
        if (s.state != WorkerState::Dead) any_live = true;
      }
      if (!any_live) break;
    }

    // Respawn dead slots while there is queued work they could take.
    if (!aborting) {
      std::size_t ready = 0;  // workers that are or will become available
      for (const Slot& s : slots) {
        if (s.state == WorkerState::Idle || s.state == WorkerState::Spawning) {
          ++ready;
        }
      }
      const double now = now_sec();
      for (Slot& s : slots) {
        if (s.state != WorkerState::Dead) continue;
        if (ready >= queue.size()) break;
        if (s.respawns > cfg_.max_respawns) continue;
        if (now < s.next_spawn_at) continue;
        const int saved_respawns = s.respawns;
        if (spawn(s)) {
          s.respawns = saved_respawns;
          ++ready;
        } else {
          s.respawns = saved_respawns;
          ++consecutive_fork_failures;
          if (live() == 0 &&
              consecutive_fork_failures >= kForkFailuresBeforeDegrade) {
            outcome = PoolOutcome::SpawnFailed;
          } else {
            schedule_respawn(s);
          }
        }
      }
      // No worker alive, none can ever come back, work still queued:
      // the pool cannot make progress. Degrade.
      if (live() == 0 && work_remaining()) {
        bool any_respawnable = false;
        for (const Slot& s : slots) {
          if (s.respawns <= cfg_.max_respawns) {
            any_respawnable = true;
            break;
          }
        }
        if (!any_respawnable) outcome = PoolOutcome::SpawnFailed;
      }
      if (outcome == PoolOutcome::SpawnFailed) break;
    }

    // Dispatch queued jobs to idle workers, affinity first. Pass 1 gives
    // each idle worker the first queued job matching the key it last ran
    // (warm datasets, warm arenas). Pass 2 hands the remaining idle
    // workers jobs whose keys no live worker has claimed — a claimed
    // key's jobs wait for their warm worker rather than being spread
    // across the pool, so per-key setup happens once per pool, not once
    // per worker. Pass 2 starts its scan one slot past where it last
    // dispatched, so new keys spread round-robin across the pool instead
    // of piling every key's warm state into the lowest idle slot.
    // Progress is guaranteed: a claimed key's owner is Idle (pass 1 feeds
    // it once a measure slot is free), Busy/Spawning (it will pull the
    // key's jobs when it frees up), or dies (respawn keeps the claim; a
    // slot past its respawn budget goes Dead and Dead slots claim
    // nothing).
    auto dispatch_to = [&](Slot& s, std::deque<Job>::iterator it) -> bool {
      Job job = std::move(*it);
      queue.erase(it);
      if (client_.before_dispatch) client_.before_dispatch(job);
      char header[32];
      std::snprintf(header, sizeof(header), "job %llu",
                    static_cast<unsigned long long>(job.id));
      const std::string frame =
          frame_encode(record_encode(header, job.payload));
      if (!write_all(s.ctl_wr, frame.data(), frame.size())) {
        // Worker died between poll rounds; give the job back and let the
        // reap path recycle the slot.
        queue.push_front(std::move(job));
        s.state = WorkerState::Draining;
        s.drain_at = now_sec();
        return false;
      }
      s.last_affinity = job.affinity;
      s.job = std::move(job);
      s.measuring = true;
      s.state = WorkerState::Busy;
      s.busy_since = now_sec();
      ++stats_.jobs_dispatched;
      return true;
    };
    if (!aborting) {
      // Measure slots (PoolConfig::max_inflight, 0 = uncapped): a job is
      // dispatched only while fewer than `cap` jobs are measuring, so
      // measured work never preempts measured work. Workers past their
      // mark (encoding, shipping a result) do not hold a slot.
      const std::size_t cap = cfg_.max_inflight == 0
                                  ? slots.size()
                                  : std::min(cfg_.max_inflight, slots.size());
      std::size_t measuring = 0;
      for (const Slot& s : slots) {
        if (s.measuring) ++measuring;
      }
      auto took_slot = [&] {
        ++measuring;
        stats_.peak_measuring = std::max(stats_.peak_measuring, measuring);
      };
      for (Slot& s : slots) {
        if (queue.empty() || measuring >= cap) break;
        if (s.state != WorkerState::Idle || s.last_affinity == 0) continue;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if (it->affinity == s.last_affinity) {
            if (dispatch_to(s, it)) {
              ++stats_.affinity_hits;
              took_slot();
            }
            break;
          }
        }
      }
      auto claimed_elsewhere = [&](std::uint64_t key, const Slot& self) {
        if (key == 0) return false;
        for (const Slot& o : slots) {
          if (&o == &self || o.last_affinity != key) continue;
          if (o.state == WorkerState::Idle || o.state == WorkerState::Busy ||
              o.state == WorkerState::Spawning) {
            return true;
          }
        }
        return false;
      };
      for (std::size_t k = 0; k < slots.size(); ++k) {
        if (queue.empty() || measuring >= cap) break;
        const std::size_t i = (spread_cursor + k) % slots.size();
        Slot& s = slots[i];
        if (s.state != WorkerState::Idle) continue;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if (!claimed_elsewhere(it->affinity, s)) {
            if (dispatch_to(s, it)) {
              took_slot();
              spread_cursor = i + 1;
            }
            break;
          }
        }
      }
    }

    // If the source dried up, idle workers have nothing left to do.
    if ((source_done || aborting) && queue.empty()) {
      for (Slot& s : slots) {
        if (s.state == WorkerState::Idle) send_drain(s);
      }
    }

    // poll() on every live stream plus the SIGCHLD self-pipe.
    std::vector<pollfd> fds;
    std::vector<Slot*> fd_owner;
    if (g_sigchld_pipe[0] >= 0) {
      fds.push_back({g_sigchld_pipe[0], POLLIN, 0});
      fd_owner.push_back(nullptr);
    }
    for (Slot& s : slots) {
      if (s.res_rd >= 0) {
        fds.push_back({s.res_rd, POLLIN, 0});
        fd_owner.push_back(&s);
      }
      if (s.err_rd >= 0) {
        fds.push_back({s.err_rd, POLLIN, 0});
        fd_owner.push_back(&s);
      }
      // The ring doorbell: readable whenever the worker has published
      // chunks since the last drain. Draining here — not just at
      // descriptor time — is what unblocks a writer mid-message when a
      // payload is larger than the ring.
      if (s.doorbell && s.state != WorkerState::Dead) {
        fds.push_back({s.doorbell->poll_fd(), POLLIN, 0});
        fd_owner.push_back(&s);
      }
    }
    const int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (rc > 0) {
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Slot* s = fd_owner[i];
        if (s == nullptr) {
          char buf[64];
          while (read(g_sigchld_pipe[0], buf, sizeof(buf)) > 0) {
          }
        } else if (s->doorbell && fds[i].fd == s->doorbell->poll_fd()) {
          s->doorbell->drain();
          drain_ring(*s);
        } else {
          read_slot(*s);
        }
      }
    }
    reap();

    // Central liveness + deadline policy.
    const double now = now_sec();
    for (Slot& s : slots) {
      if (s.state == WorkerState::Dead) continue;
      if (s.state == WorkerState::Draining) {
        // SIGTERM (deadline) escalates to SIGKILL after the grace period;
        // a drain stall (worker that will not say goodbye within the
        // heartbeat budget) is killed outright as well.
        const bool grace_over =
            s.sent_term && (now - s.term_at) * 1000.0 >
                               static_cast<double>(cfg_.term_grace_ms);
        const bool drain_stalled =
            (now - s.drain_at) * 1000.0 >
            static_cast<double>(cfg_.heartbeat_timeout_ms);
        if (s.pid > 0 && !s.sent_kill && (grace_over || drain_stalled)) {
          kill(s.pid, SIGKILL);
          s.sent_kill = true;
        }
        continue;
      }
      if (cfg_.heartbeat_timeout_ms > 0 &&
          (now - s.last_beat) * 1000.0 >
              static_cast<double>(cfg_.heartbeat_timeout_ms)) {
        ++stats_.heartbeat_timeouts;
        condemn(s, FailReason::HeartbeatTimeout);
        continue;
      }
      if (s.state == WorkerState::Busy && cfg_.job_deadline_sec > 0.0) {
        if (!s.sent_term && now - s.busy_since > cfg_.job_deadline_sec) {
          ++stats_.deadline_kills;
          kill(s.pid, SIGTERM);
          s.sent_term = true;
          s.term_at = now;
          s.ignore_frames = true;  // the job is already decided
          s.state = WorkerState::Draining;
          s.drain_at = now;
          JobFailure jf;
          jf.reason = FailReason::DeadlineKilled;
          fail_job(s, jf);
        }
      }
      if (s.sent_term && !s.sent_kill &&
          (now - s.term_at) * 1000.0 >
              static_cast<double>(cfg_.term_grace_ms)) {
        kill(s.pid, SIGKILL);
        s.sent_kill = true;
      }
    }
  }

  // Tear down whatever is left (SpawnFailed / Interrupted exits), then
  // sweep so no pooled worker can outlive run() as a zombie.
  for (Slot& s : slots) {
    if (s.pid > 0) kill(s.pid, SIGKILL);
  }
  for (Slot& s : slots) {
    if (s.pid > 0) {
      int status = 0;
      while (waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
      }
      close_slot_fds(s);
      s.pid = -1;
      s.state = WorkerState::Dead;
    } else {
      close_slot_fds(s);
    }
  }
  while (waitpid(-1, nullptr, WNOHANG) > 0) {
  }
  cleanup_signals();
  if (interrupted) return PoolOutcome::Interrupted;
  return outcome;
}

}  // namespace rperf::sandbox
