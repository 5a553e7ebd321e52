// Tests for the v3 shm transport: the SPSC shared-memory ring
// (wraparound, chunking, backpressure, torn-write detection, close
// semantics), the wire snapshot codec (typed round-trips, dictionary
// refs, raw-bit checksum parity against the v1 hexfloat path, fuzzed
// decode robustness), the slice-by-8 CRC-32 equivalence, and the
// pool-level transport behaviours (ring-create failure -> JSON fallback,
// ring corruption -> ProtocolCorrupt recycle, affinity dispatch).
//
// OpenMP note: pool tests fork workers from this process, so the fixture
// pins OpenMP to one thread (a forked copy of a live libgomp thread pool
// deadlocks).
#include <gtest/gtest.h>
#include <omp.h>
#include <poll.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "instrument/profile.hpp"
#include "instrument/trace_sink.hpp"
#include "instrument/wire_codec.hpp"
#include "sandbox/pool.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/ring.hpp"
#include "sandbox/wire.hpp"

namespace {

using namespace rperf;
using sandbox::Disposition;
using sandbox::Doorbell;
using sandbox::FailReason;
using sandbox::Job;
using sandbox::JobFailure;
using sandbox::PoolClient;
using sandbox::PoolConfig;
using sandbox::PoolOutcome;
using sandbox::ShmRing;
using sandbox::Transport;
using sandbox::WorkerPool;

/// Deterministic 64-bit LCG for reproducible pseudo-random test data.
std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s;
}

std::string pattern_bytes(std::uint64_t seed, std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(lcg(seed) >> 56);
  }
  return out;
}

/// Pop chunks until one full message is assembled; spins through None for
/// concurrent-writer tests. Returns false if the ring latched Corrupt.
bool read_message(ShmRing& ring, std::string& out) {
  out.clear();
  for (;;) {
    bool more = false;
    switch (ring.read_chunk(out, more)) {
      case ShmRing::ReadStatus::Corrupt:
        return false;
      case ShmRing::ReadStatus::None:
        std::this_thread::yield();
        continue;
      case ShmRing::ReadStatus::Chunk:
        if (!more) return true;
        continue;
    }
  }
}

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    omp_set_num_threads(1);
    sandbox::ring_testing::fail_next_creates(0);
    sandbox::pool_testing::fail_next_forks(0);
  }
  void TearDown() override {
    sandbox::ring_testing::fail_next_creates(0);
    sandbox::pool_testing::fail_next_forks(0);
  }
};

// ------------------------------------------------------------- shm ring

TEST_F(TransportTest, RingRoundTripsMessagesAcrossWraparound) {
  auto ring = ShmRing::create(4096);
  ASSERT_NE(ring, nullptr);
  // Cumulative traffic far exceeds the capacity, so the monotonic
  // cursors lap the buffer many times and chunks split across the edge.
  std::uint64_t seed = 11;
  std::size_t total = 0;
  for (int i = 0; i < 300; ++i) {
    const std::size_t n = lcg(seed) % 3000;  // includes empty messages
    const std::string msg = pattern_bytes(seed ^ n, n);
    ASSERT_TRUE(ring->write_message(msg.data(), msg.size()));
    std::string got;
    ASSERT_TRUE(read_message(*ring, got)) << "iteration " << i;
    ASSERT_EQ(got, msg) << "iteration " << i;
    total += n;
  }
  EXPECT_GT(total, 50u * 4096u);
  EXPECT_FALSE(ring->corrupt());
}

TEST_F(TransportTest, RingSplitsLargeMessagesIntoChunks) {
  auto ring = ShmRing::create(1u << 20);
  ASSERT_NE(ring, nullptr);
  // > 2x kMaxChunkPayload forces a multi-chunk message even with the ring
  // entirely empty; the reassembled bytes must be identical.
  const std::string msg = pattern_bytes(99, ShmRing::kMaxChunkPayload * 2 + 777);
  ASSERT_TRUE(ring->write_message(msg.data(), msg.size()));
  std::string got;
  bool more = false;
  ASSERT_EQ(ring->read_chunk(got, more), ShmRing::ReadStatus::Chunk);
  EXPECT_TRUE(more);  // first chunk announces a continuation
  ASSERT_TRUE(read_message(*ring, got));  // drains the remaining chunks
  // read_message cleared `got`; re-read from scratch is not possible, so
  // assemble manually instead.
  auto ring2 = ShmRing::create(1u << 20);
  ASSERT_NE(ring2, nullptr);
  ASSERT_TRUE(ring2->write_message(msg.data(), msg.size()));
  std::string whole;
  ASSERT_TRUE(read_message(*ring2, whole));
  EXPECT_EQ(whole, msg);
}

TEST_F(TransportTest, RingBackpressureBlocksWriterAndDropsNothing) {
  auto ring = ShmRing::create(4096);
  ASSERT_NE(ring, nullptr);
  // ~40x the capacity streams through a slow reader: the writer must
  // block on the full ring (never drop or overwrite) and every byte must
  // arrive in order.
  constexpr int kMessages = 16;
  constexpr std::size_t kMessageBytes = 10000;
  std::vector<std::string> sent;
  for (int i = 0; i < kMessages; ++i) {
    sent.push_back(pattern_bytes(1000 + i, kMessageBytes));
  }
  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    for (const std::string& m : sent) {
      if (!ring->write_message(m.data(), m.size())) {
        writer_ok = false;
        return;
      }
    }
  });
  for (int i = 0; i < kMessages; ++i) {
    if (i % 5 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::string got;
    ASSERT_TRUE(read_message(*ring, got)) << "message " << i;
    ASSERT_EQ(got, sent[i]) << "message " << i;
    // The reader never observes more than the ring can hold — the proof
    // the writer blocked instead of overwriting.
    EXPECT_LE(ring->readable(), ring->capacity());
  }
  writer.join();
  EXPECT_TRUE(writer_ok);
  EXPECT_FALSE(ring->corrupt());
}

TEST_F(TransportTest, TornWriteIsDetectedAndLatchesTheRing) {
  auto ring = ShmRing::create(4096);
  ASSERT_NE(ring, nullptr);
  const std::string ok = "fine";
  ASSERT_TRUE(ring->write_message(ok.data(), ok.size()));
  std::string got;
  ASSERT_TRUE(read_message(*ring, got));
  EXPECT_EQ(got, ok);

  // A mangled sequence stamp models a torn/replayed write; the reader
  // must refuse the chunk and latch, exactly like a CRC-failed frame.
  ring->corrupt_next_chunk();
  const std::string bad = "torn";
  ASSERT_TRUE(ring->write_message(bad.data(), bad.size()));
  bool more = false;
  EXPECT_EQ(ring->read_chunk(got, more), ShmRing::ReadStatus::Corrupt);
  EXPECT_TRUE(ring->corrupt());
  // No resync: a good message behind the torn one is unreachable by
  // design (the supervisor recycles the worker instead).
  ASSERT_TRUE(ring->write_message(ok.data(), ok.size()));
  EXPECT_EQ(ring->read_chunk(got, more), ShmRing::ReadStatus::Corrupt);
}

TEST_F(TransportTest, CloseUnblocksAWaitingWriter) {
  auto ring = ShmRing::create(4096);
  ASSERT_NE(ring, nullptr);
  const std::string big = pattern_bytes(5, 100000);  // cannot ever fit
  std::atomic<bool> write_result{true};
  std::thread writer([&] {
    write_result = ring->write_message(big.data(), big.size());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring->close();
  writer.join();
  EXPECT_FALSE(write_result) << "write into a closed ring must fail";
}

TEST_F(TransportTest, RingRejectsBadCapacities) {
  EXPECT_EQ(ShmRing::create(0), nullptr);
  EXPECT_EQ(ShmRing::create(100), nullptr);    // below the floor
  EXPECT_EQ(ShmRing::create(12288), nullptr);  // not a power of two
  EXPECT_NE(ShmRing::create(4096), nullptr);
}

TEST_F(TransportTest, DoorbellWakesPollAndDrainsQuiet) {
  auto bell = Doorbell::create();
  ASSERT_NE(bell, nullptr);
  EXPECT_FALSE(bell->drain()) << "fresh doorbell must be quiet";
  bell->ring();
  bell->ring();  // coalesces; still one wakeup
  pollfd pfd{bell->poll_fd(), POLLIN, 0};
  ASSERT_EQ(poll(&pfd, 1, 1000), 1);
  EXPECT_TRUE(pfd.revents & POLLIN);
  EXPECT_TRUE(bell->drain());
  EXPECT_FALSE(bell->drain()) << "drained doorbell must go quiet";
  pfd.revents = 0;
  EXPECT_EQ(poll(&pfd, 1, 0), 0);
}

// ----------------------------------------------------------- wire codec

TEST_F(TransportTest, WireScalarsRoundTrip) {
  wire::Writer w;
  w.begin_blob();
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(6.02214076e23);
  w.put_f80(1.0L / 3.0L);
  w.put_bytes(std::string("raw\0bytes", 9));
  const std::string blob = w.take();

  wire::Reader r(blob);
  r.expect_blob();
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_f64(), 6.02214076e23);
  EXPECT_EQ(r.get_f80(), 1.0L / 3.0L);
  EXPECT_EQ(r.get_bytes(), std::string("raw\0bytes", 9));
  EXPECT_EQ(r.remaining(), 0u);
}

/// The value-carrying bytes of a long double (x87 80-bit extended stores
/// 10 significant bytes in 12/16-byte storage; the padding is
/// indeterminate and must not be compared).
std::array<unsigned char, sizeof(long double)> ld_bits(long double v) {
  std::array<unsigned char, sizeof(long double)> a{};
  std::memcpy(a.data(), &v, sizeof(v));
  return a;
}
constexpr std::size_t kLdSignificant =
    (sizeof(long double) == 16 || sizeof(long double) == 12)
        ? 10
        : sizeof(long double);

TEST_F(TransportTest, ChecksumRawBitsMatchHexfloatBitForBit) {
  // Satellite acceptance: the ring's raw-bit checksum transport and the
  // v1/v2 hexfloat string transport must reproduce the identical
  // long-double bit pattern for every representable value a kernel
  // checksum can take.
  const long double cases[] = {
      0.0L,
      -0.0L,
      1.0L,
      1.0L / 3.0L,
      -12345.6789L,
      3.0e27L + 0.125L,          // large accumulated checksum
      LDBL_EPSILON,
      LDBL_MIN,
      LDBL_MAX,
      LDBL_TRUE_MIN,             // denormal
      9007199254740993.0L,       // first integer a double cannot hold
  };
  for (const long double v : cases) {
    // v1/v2 path: C99 hexfloat printf -> strtold.
    const long double via_hex =
        sandbox::checksum_from_hex(sandbox::checksum_to_hex(v));
    // v3 path: raw bits through the wire codec.
    wire::Writer w;
    w.put_f80(v);
    wire::Reader r(w.buffer());
    const long double via_wire = r.get_f80();

    const auto want = ld_bits(v);
    EXPECT_EQ(std::memcmp(ld_bits(via_hex).data(), want.data(),
                          kLdSignificant),
              0)
        << "hexfloat round-trip changed bits of " << static_cast<double>(v);
    EXPECT_EQ(std::memcmp(ld_bits(via_wire).data(), want.data(),
                          kLdSignificant),
              0)
        << "wire round-trip changed bits of " << static_cast<double>(v);
    EXPECT_EQ(std::signbit(via_wire), std::signbit(v));
  }
}

TEST_F(TransportTest, WireStringsUseGlobalInlineAndLocalRefs) {
  const std::string seeded = "transport-test-seeded-vocab";
  const std::uint32_t id = wire::dict().intern(seeded);
  EXPECT_EQ(wire::dict().intern(seeded), id) << "intern must be idempotent";
  EXPECT_EQ(wire::dict().find(seeded), id);
  EXPECT_EQ(wire::dict().lookup(id), seeded);
  EXPECT_EQ(wire::dict().find("transport-test-never-interned"),
            wire::kInlineDef);

  wire::Writer w;
  w.put_str(seeded);                      // global ref: 4 bytes
  const std::size_t after_global = w.buffer().size();
  EXPECT_EQ(after_global, 4u);
  const std::string novel = "transport-test-novel";
  w.put_str(novel);                       // inline def: 4 + 4 + len
  const std::size_t after_def = w.buffer().size();
  EXPECT_EQ(after_def - after_global, 8u + novel.size());
  w.put_str(novel);                       // blob-local ref: 4 bytes
  EXPECT_EQ(w.buffer().size() - after_def, 4u);

  wire::Reader r(w.buffer());
  EXPECT_EQ(r.get_str(), seeded);
  EXPECT_EQ(r.get_str(), novel);
  EXPECT_EQ(r.get_str(), novel);
}

TEST_F(TransportTest, WireDecodeFailsClosedOnViolations) {
  // Out-of-range dictionary ref.
  {
    wire::Writer w;
    w.put_u32(0x7FFFFFF0u);  // far past any interned id, high bit clear
    wire::Reader r(w.buffer());
    EXPECT_THROW((void)r.get_str(), wire::Error);
  }
  // Out-of-range blob-local ref.
  {
    wire::Writer w;
    w.put_u32(wire::kLocalBit | 3u);  // no locals defined yet
    wire::Reader r(w.buffer());
    EXPECT_THROW((void)r.get_str(), wire::Error);
  }
  // Truncated payload.
  {
    wire::Writer w;
    w.put_u64(42);
    wire::Reader r(w.buffer().data(), 3);
    EXPECT_THROW((void)r.get_u64(), wire::Error);
  }
  // Wrong long-double width byte.
  {
    wire::Writer w;
    w.put_u8(3);  // claims a 3-byte long double
    w.put_u64(0);
    wire::Reader r(w.buffer());
    EXPECT_THROW((void)r.get_f80(), wire::Error);
  }
  // Bad blob header.
  {
    const std::string junk = "{\"not\":\"wire\"}";
    wire::Reader r(junk);
    EXPECT_THROW(r.expect_blob(), wire::Error);
  }
  // Element count that cannot fit the remaining bytes.
  {
    wire::Writer w;
    w.put_u32(0xFFFFFFF0u);  // "this many profile roots follow"
    wire::Reader r(w.buffer());
    const std::uint32_t count = r.get_u32();
    EXPECT_THROW(r.check_count(count, 24), wire::Error);
  }
}

cali::Profile sample_profile() {
  cali::Profile p;
  p.metadata["suite"] = "rajaperf-repro";
  p.metadata["variant"] = "Base_Seq";
  cali::ProfileNode root;
  root.name = "Basic_DAXPY";
  root.time_sec = 0.125;
  root.visit_count = 3;
  root.metrics["flops"] = 2.0e9;
  root.metrics["bytes_read"] = 1.5e10;
  cali::ProfileNode child;
  child.name = "checksum";
  child.time_sec = 0.007;
  child.visit_count = 1;
  root.children.push_back(child);
  p.roots.push_back(root);
  return p;
}

TEST_F(TransportTest, ProfileRoundTripsThroughWire) {
  const cali::Profile p = sample_profile();
  wire::Writer w;
  w.begin_blob();
  cali::profile_to_wire(p, w);
  wire::Reader r(w.buffer());
  r.expect_blob();
  const cali::Profile q = cali::profile_from_wire(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(q.metadata, p.metadata);
  ASSERT_EQ(q.roots.size(), 1u);
  EXPECT_EQ(q.roots[0].name, "Basic_DAXPY");
  EXPECT_EQ(q.roots[0].time_sec, 0.125);
  EXPECT_EQ(q.roots[0].visit_count, 3u);
  EXPECT_EQ(q.roots[0].metrics, p.roots[0].metrics);
  ASSERT_EQ(q.roots[0].children.size(), 1u);
  EXPECT_EQ(q.roots[0].children[0].name, "checksum");
  EXPECT_EQ(q.roots[0].children[0].time_sec, 0.007);
}

TEST_F(TransportTest, TraceDataRoundTripsThroughWire) {
  cali::TraceData t;
  t.pid = 4242;
  t.process_name = "rperf-pool-worker";
  t.clock_offset_sec = 1.5;
  t.names = {"Basic_DAXPY", "pool_hits"};
  cali::TraceRecord span;
  span.name = 0;
  span.tid = 1;
  span.kind = cali::TraceRecord::Kind::Span;
  span.depth = 2;
  span.t0 = 0.25;
  span.t1 = 0.75;
  t.records.push_back(span);
  cali::TraceRecord counter;
  counter.name = 1;
  counter.kind = cali::TraceRecord::Kind::Counter;
  counter.t0 = 0.5;
  counter.value = 17.0;
  t.records.push_back(counter);
  cali::RegionThreadStats st;
  st.instances = 4;
  st.sum_max_sec = 0.4;
  st.sum_mean_sec = 0.3;
  st.max_threads = 8;
  t.region_stats["Basic_DAXPY"] = st;
  t.dropped = 9;
  t.overhead_sec = 0.001;

  wire::Writer w;
  w.begin_blob();
  cali::trace_to_wire(t, w);
  wire::Reader r(w.buffer());
  r.expect_blob();
  const cali::TraceData u = cali::trace_from_wire(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(u.pid, 4242);
  EXPECT_EQ(u.process_name, "rperf-pool-worker");
  EXPECT_EQ(u.clock_offset_sec, 1.5);
  EXPECT_EQ(u.names, t.names);
  ASSERT_EQ(u.records.size(), 2u);
  EXPECT_EQ(u.records[0].kind, cali::TraceRecord::Kind::Span);
  EXPECT_EQ(u.records[0].tid, 1u);
  EXPECT_EQ(u.records[0].depth, 2);
  EXPECT_EQ(u.records[0].t1, 0.75);
  EXPECT_EQ(u.records[1].kind, cali::TraceRecord::Kind::Counter);
  EXPECT_EQ(u.records[1].value, 17.0);
  ASSERT_EQ(u.region_stats.count("Basic_DAXPY"), 1u);
  EXPECT_EQ(u.region_stats.at("Basic_DAXPY").instances, 4u);
  EXPECT_EQ(u.region_stats.at("Basic_DAXPY").max_threads, 8);
  EXPECT_EQ(u.dropped, 9u);
  EXPECT_EQ(u.overhead_sec, 0.001);
}

TEST_F(TransportTest, FuzzedBlobsNeverEscapeTheDecoder) {
  // Flip random bytes in a valid profile blob: every mutation must either
  // decode (to garbage values — acceptable) or throw wire::Error. Nothing
  // else may escape; no out-of-bounds read may occur (ASan-checked when
  // the sanitize preset runs this suite).
  wire::Writer w;
  w.begin_blob();
  cali::profile_to_wire(sample_profile(), w);
  const std::string pristine = w.buffer();

  std::uint64_t seed = 0xFEEDFACE;
  int decoded = 0;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob = pristine;
    const int flips = 1 + static_cast<int>(lcg(seed) % 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = lcg(seed) % blob.size();
      blob[pos] = static_cast<char>(blob[pos] ^ (1u << (lcg(seed) % 8)));
    }
    try {
      wire::Reader r(blob);
      r.expect_blob();
      (void)cali::profile_from_wire(r);
      ++decoded;
    } catch (const wire::Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(decoded + rejected, 2000);
  EXPECT_GT(rejected, 0) << "corruption was never detected — guards dead?";
}

TEST_F(TransportTest, TruncatedBlobsNeverEscapeTheDecoder) {
  wire::Writer w;
  w.begin_blob();
  cali::profile_to_wire(sample_profile(), w);
  const std::string pristine = w.buffer();
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    try {
      wire::Reader r(pristine.data(), len);
      r.expect_blob();
      (void)cali::profile_from_wire(r);
    } catch (const wire::Error&) {
      // Expected for nearly every prefix.
    }
  }
}

// --------------------------------------------------------------- crc-32

TEST_F(TransportTest, SliceBy8Crc32MatchesBytewiseReference) {
  // Known check value first, then pseudo-random buffers over every length
  // 0..64 and every alignment 0..7 of a larger block: the two independent
  // implementations must agree everywhere.
  EXPECT_EQ(sandbox::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(sandbox::crc32_bytewise("123456789", 9), 0xCBF43926u);

  std::uint64_t seed = 31337;
  const std::string block = pattern_bytes(seed, 4096 + 8);
  for (std::size_t len = 0; len <= 64; ++len) {
    const std::string buf = pattern_bytes(seed + len, len);
    EXPECT_EQ(sandbox::crc32(buf.data(), len),
              sandbox::crc32_bytewise(buf.data(), len))
        << "length " << len;
  }
  for (std::size_t off = 0; off < 8; ++off) {
    EXPECT_EQ(sandbox::crc32(block.data() + off, 4096),
              sandbox::crc32_bytewise(block.data() + off, 4096))
        << "alignment " << off;
  }
}

// --------------------------------------------- pool-level transport paths

TEST_F(TransportTest, PoolReportsShmTransportToWorkers) {
  PoolConfig cfg;
  cfg.workers = 2;
  PoolClient client;
  client.before_dispatch = [](Job& job) { job.payload = "q"; };
  // The worker-side transport query drives the executor's encoding
  // choice; under a healthy shm pool every worker must see Shm.
  client.run_job = [](const std::string&) {
    return to_string(WorkerPool::current_transport());
  };
  std::vector<std::string> results(4);
  client.on_result = [&](const Job& job, const std::string& result) {
    results[job.id] = result;
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
  for (const std::string& r : results) EXPECT_EQ(r, "shm");
  const auto& st = pool.stats();
  EXPECT_EQ(st.shm_spawns, 2u);
  EXPECT_EQ(st.ring_fallbacks, 0u);
  EXPECT_EQ(st.ring_messages, 4u);
  EXPECT_GT(st.ring_payload_bytes, 0u);
}

TEST_F(TransportTest, RingCreateFailureFallsBackToJsonPerWorker) {
  // Both workers' ring setups fail: the pool must degrade those slots to
  // the v2 inline transport transparently — jobs still complete, workers
  // observe Json, and the stats record the fallback.
  sandbox::ring_testing::fail_next_creates(2);
  PoolConfig cfg;
  cfg.workers = 2;
  PoolClient client;
  client.before_dispatch = [](Job& job) { job.payload = "q"; };
  client.run_job = [](const std::string&) {
    return to_string(WorkerPool::current_transport());
  };
  std::vector<std::string> results(4);
  client.on_result = [&](const Job& job, const std::string& result) {
    results[job.id] = result;
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
  for (const std::string& r : results) EXPECT_EQ(r, "json");
  const auto& st = pool.stats();
  EXPECT_EQ(st.ring_fallbacks, 2u);
  EXPECT_EQ(st.shm_spawns, 0u);
  EXPECT_EQ(st.ring_messages, 0u);
}

TEST_F(TransportTest, ConfiguredJsonTransportBypassesRings) {
  PoolConfig cfg;
  cfg.workers = 1;
  cfg.transport = Transport::Json;
  PoolClient client;
  client.before_dispatch = [](Job& job) { job.payload = "q"; };
  client.run_job = [](const std::string&) {
    return to_string(WorkerPool::current_transport());
  };
  std::string result;
  client.on_result = [&](const Job&, const std::string& r) {
    result = r;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
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
  EXPECT_EQ(result, "json");
  EXPECT_EQ(pool.stats().shm_spawns, 0u);
  EXPECT_EQ(pool.stats().ring_messages, 0u);
}

TEST_F(TransportTest, LargePayloadStreamsThroughASmallRing) {
  // A result far bigger than the ring forces chunked streaming with
  // doorbell-driven mid-message drains on the supervisor side; the bytes
  // must arrive intact (seq stamps catch any tear).
  PoolConfig cfg;
  cfg.workers = 1;
  cfg.ring_bytes = 4096;
  const std::string big = pattern_bytes(777, 300000);
  PoolClient client;
  client.before_dispatch = [](Job& job) { job.payload = "q"; };
  client.run_job = [&](const std::string&) { return big; };
  std::string got;
  client.on_result = [&](const Job&, const std::string& r) {
    got = r;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
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
  EXPECT_EQ(got, big);
  EXPECT_GE(pool.stats().ring_payload_bytes, big.size());
}

TEST_F(TransportTest, RingCorruptionIsProtocolCorruptAndRecycles) {
  // The protocorrupt wire fault under the shm transport: the worker
  // mangles its next chunk's seq stamp; the supervisor must latch the
  // ring, fail the job as ProtocolCorrupt, recycle the worker, and run
  // the retry cleanly — the same observable contract as a v2 CRC flip.
  for (const Transport transport : {Transport::Shm, Transport::Json}) {
    PoolConfig cfg;
    cfg.workers = 1;
    cfg.transport = transport;
    std::vector<int> attempts(2, 0);
    PoolClient client;
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
    client.on_result = [&](const Job&, const std::string& result) {
      EXPECT_EQ(result, "done");
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
      if (next >= attempts.size()) return std::nullopt;
      Job j;
      j.id = next++;
      return j;
    });
    EXPECT_EQ(out, PoolOutcome::Completed)
        << "transport " << to_string(transport);
    EXPECT_EQ(completed.load(), 2) << "transport " << to_string(transport);
    EXPECT_EQ(corrupt_failures.load(), 1)
        << "transport " << to_string(transport);
    EXPECT_GE(pool.stats().recycles, 1u);
  }
}

TEST_F(TransportTest, AffinityDispatchPartitionsKeysAcrossWorkers) {
  // Jobs carry two affinity keys, four jobs each. The claim rule must
  // keep each key on a single worker (warm state is built once per pool,
  // not once per worker) and count the warm re-dispatches.
  PoolConfig cfg;
  cfg.workers = 2;
  PoolClient client;
  constexpr std::uint64_t kKeyA = 0xA1;
  constexpr std::uint64_t kKeyB = 0xB1;
  client.before_dispatch = [](Job& job) { job.payload = "q"; };
  client.run_job = [](const std::string&) {
    return std::to_string(getpid());
  };
  std::vector<std::string> pids(8);
  client.on_result = [&](const Job& job, const std::string& result) {
    pids[job.id] = result;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };
  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= pids.size()) return std::nullopt;
    Job j;
    j.id = next;
    j.affinity = next < 4 ? kKeyA : kKeyB;
    ++next;
    return j;
  });
  EXPECT_EQ(out, PoolOutcome::Completed);
  // Every key ran on exactly one worker.
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(pids[i], pids[0]) << "key A split across workers";
    EXPECT_EQ(pids[4 + i], pids[4]) << "key B split across workers";
  }
  // Each key's first dispatch is cold; the remaining three per key must
  // be warm-worker (pass 1) hits.
  EXPECT_EQ(pool.stats().affinity_hits, 6u);
}

}  // namespace
