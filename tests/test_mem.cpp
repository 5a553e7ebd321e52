// Tests for the rperf::mem subsystem: size-class pool, deterministic fills,
// and the blocked checksum's thread invariance.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include <omp.h>

#include "faults/injector.hpp"
#include "mem/fill.hpp"
#include "mem/pool.hpp"
#include "suite/data_utils.hpp"

namespace {

using namespace rperf;

/// Reference serial LCG (numerical recipes constants, zero seed mapped to
/// 1): the stream the blocked jump-ahead fills must reproduce bit for bit.
class SerialLcg {
 public:
  explicit SerialLcg(std::uint32_t seed) : state_(seed ? seed : 1u) {}
  std::uint32_t next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_;
  }
  double next_unit() {
    return (static_cast<double>(next() >> 8) + 0.5) / 16777216.0;
  }

 private:
  std::uint32_t state_;
};

/// Reference checksum: element at a time in long double, weights
/// (i % 7) + 1. The blocked checksum may differ from it only by rounding.
long double checksum_elementwise(const double* data, suite::Index_type n) {
  long double sum = 0.0L;
  for (suite::Index_type i = 0; i < n; ++i) {
    sum += static_cast<long double>(data[i]) *
           static_cast<long double>((i % 7) + 1);
  }
  return sum;
}

// ---------------------------------------------------------------- pool

TEST(MemPool, SizeClassRounding) {
  EXPECT_EQ(mem::Pool::size_class_bytes(0), 64u);
  EXPECT_EQ(mem::Pool::size_class_bytes(1), 64u);
  EXPECT_EQ(mem::Pool::size_class_bytes(64), 64u);
  EXPECT_EQ(mem::Pool::size_class_bytes(65), 128u);
  EXPECT_EQ(mem::Pool::size_class_bytes(4096), 4096u);
  EXPECT_EQ(mem::Pool::size_class_bytes(4097), 8192u);
  EXPECT_EQ(mem::Pool::size_class_bytes((1u << 20) + 1), 2u << 20);
}

TEST(MemPool, AllocationsAre64ByteAligned) {
  mem::Pool pool;
  for (std::size_t bytes : {1u, 63u, 64u, 1000u, 4096u, 100000u}) {
    void* p = pool.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << bytes;
    pool.deallocate(p, bytes);
  }
}

TEST(MemPool, ResetNotFreeSemantics) {
  mem::Pool pool;
  void* p = pool.allocate(10000);  // class 16384
  auto s = pool.stats();
  EXPECT_EQ(s.bytes_in_use, 16384u);
  EXPECT_EQ(s.bytes_free, 0u);
  EXPECT_EQ(s.os_allocs, 1u);

  pool.deallocate(p, 10000);
  s = pool.stats();
  EXPECT_EQ(s.bytes_in_use, 0u);
  EXPECT_EQ(s.bytes_free, 16384u);  // parked, not returned to the OS

  // Same size class (different byte count) is served from the free list.
  void* q = pool.allocate(9000);
  s = pool.stats();
  EXPECT_EQ(q, p);  // recycled chunk
  EXPECT_EQ(s.reuse_hits, 1u);
  EXPECT_EQ(s.os_allocs, 1u);  // no new OS allocation
  pool.deallocate(q, 9000);
}

TEST(MemPool, HighWaterTracksPeakInUse) {
  mem::Pool pool;
  void* a = pool.allocate(64);
  void* b = pool.allocate(64);
  EXPECT_EQ(pool.stats().high_water_bytes, 128u);
  pool.deallocate(a, 64);
  pool.deallocate(b, 64);
  EXPECT_EQ(pool.stats().high_water_bytes, 128u);  // sticky
  pool.reset_stats();
  EXPECT_EQ(pool.stats().high_water_bytes, 0u);  // restarts from in-use
}

TEST(MemPool, ReleaseTrimsFreeLists) {
  mem::Pool pool;
  void* p = pool.allocate(1 << 16);
  pool.deallocate(p, 1 << 16);
  EXPECT_GT(pool.stats().bytes_free, 0u);
  pool.release();
  EXPECT_EQ(pool.stats().bytes_free, 0u);
  EXPECT_EQ(pool.stats().bytes_in_use, 0u);
}

// Mixed size classes, allocated and freed in a shuffled order: the arena
// must never reserve more than the most memory ever live at once, and the
// peak must survive reset_stats (which rewinds high_water_bytes).
TEST(MemPool, ReserveNeverExceedsInUsePeak) {
  mem::Pool pool;
  std::vector<std::pair<void*, std::size_t>> live;
  std::uint32_t lcg = 12345u;
  auto next = [&lcg] {
    lcg = lcg * 1664525u + 1013904223u;
    return lcg >> 8;
  };
  std::size_t max_in_use = 0;
  for (int op = 0; op < 2000; ++op) {
    if (!live.empty() && (next() % 3 == 0 || live.size() > 24)) {
      const std::size_t i = next() % live.size();
      pool.deallocate(live[i].first, live[i].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const std::size_t bytes = std::size_t{64} << (next() % 16);  // to 2 MiB
      live.emplace_back(pool.allocate(bytes), bytes);
    }
    const mem::PoolStats s = pool.stats();
    max_in_use = std::max(max_in_use, s.bytes_in_use);
    ASSERT_LE(s.bytes_reserved(), s.peak_in_use_bytes) << "op " << op;
    if (op == 1000) pool.reset_stats();
  }
  EXPECT_EQ(pool.stats().peak_in_use_bytes, max_in_use);
  EXPECT_GT(pool.stats().reuse_hits, 0u);  // bounded, but still a pool
  for (const auto& [p, bytes] : live) pool.deallocate(p, bytes);
}

/// Resident set of this process in bytes, from /proc/self/statm.
std::size_t current_rss_bytes() {
  long pages = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%*s %ld", &pages) != 1) pages = 0;
  std::fclose(f);
  return static_cast<std::size_t>(pages) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// A chunk of 1 MiB or more is mapped directly, so returning it to the OS
// returns its pages: once when the bound trims it to make room for a
// larger class, and once through release().
TEST(MemPool, ReleasedLargeChunkGivesItsPagesBack) {
  constexpr std::size_t kSmall = std::size_t{16} << 20;
  constexpr std::size_t kLarge = std::size_t{32} << 20;
  mem::Pool pool;
  auto touch = [](void* p, std::size_t bytes) {
    std::memset(p, 1, bytes);
  };

  void* a = pool.allocate(kSmall);
  touch(a, kSmall);
  pool.deallocate(a, kSmall);  // parked on its free list, still resident
  const std::size_t parked = current_rss_bytes();
  // Peak becomes 32 MiB; 16 MiB free + 32 MiB new would exceed it, so the
  // parked chunk goes back to the OS before the new one is mapped.
  void* b = pool.allocate(kLarge);
  EXPECT_EQ(pool.stats().bytes_free, 0u);
  EXPECT_LE(current_rss_bytes() + kSmall * 3 / 4, parked)
      << "the trimmed chunk's pages stayed resident";

  touch(b, kLarge);
  pool.deallocate(b, kLarge);
  const std::size_t before = current_rss_bytes();
  pool.release();
  EXPECT_LE(current_rss_bytes() + kLarge * 3 / 4, before)
      << "the released chunk's pages stayed resident";
}

TEST(MemPool, PoolAllocatorVectorsAreAligned) {
  suite::Real_vec v(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  suite::Int_vec w(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 64, 0u);
  suite::Index_vec x(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(x.data()) % 64, 0u);
}

// ---------------------------------------------------------------- fills

TEST(MemFill, RandomBitIdenticalToSerialLcg) {
  for (std::int64_t n : {1, 5, 4095, 4096, 4097, 100000}) {
    std::vector<double> fast(static_cast<std::size_t>(n));
    mem::fill_random(fast.data(), n, 31u);
    SerialLcg lcg(31u);
    for (std::int64_t i = 0; i < n; ++i) {
      const double ref = lcg.next_unit();
      ASSERT_EQ(0, std::memcmp(&fast[static_cast<std::size_t>(i)], &ref,
                               sizeof(double)))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MemFill, IntRandomBitIdenticalToSerialLcg) {
  const std::int64_t n = 50000;
  std::vector<int> fast(static_cast<std::size_t>(n));
  mem::fill_int_random(fast.data(), n, -3, 11, 1201u);
  SerialLcg lcg(1201u);
  const std::uint32_t span = static_cast<std::uint32_t>(11 - (-3)) + 1u;
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(fast[static_cast<std::size_t>(i)],
              -3 + static_cast<int>(lcg.next() % span))
        << i;
  }
}

TEST(MemFill, ZeroSeedNormalizedLikeSerialLcg) {
  double a = 0.0, b = 0.0;
  mem::fill_random(&a, 1, 0u);
  mem::fill_random(&b, 1, 1u);  // the serial LCG maps seed 0 to 1
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, SerialLcg(0u).next_unit());
}

TEST(MemFill, LcgSkipMatchesStepping) {
  SerialLcg lcg(7u);
  std::uint32_t state = 7u;
  for (std::uint64_t k = 0; k <= 100; ++k) {
    EXPECT_EQ(mem::lcg_skip(7u, k), state) << k;
    state = lcg.next();
  }
}

// ------------------------------------------------------------- checksum

TEST(MemChecksum, ThreadCountInvariance) {
  const suite::Index_type n = 300000;  // above the parallel threshold
  suite::Real_vec data;
  suite::init_data(data, n, 1711u);

  const int saved = omp_get_max_threads();
  long double sums[3];
  int idx = 0;
  for (int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    sums[idx++] = suite::calc_checksum(data);
  }
  omp_set_num_threads(saved);

  // Exactly equal, not merely close. (Compared as values, not raw bytes:
  // x86 long double carries 6 padding bytes of indeterminate content.)
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[0], sums[2]);
}

TEST(MemChecksum, PooledVsFreshBuffersIdentical) {
  const suite::Index_type n = 100000;
  suite::Real_vec pooled;
  suite::init_data(pooled, n, 1723u);
  const long double pooled_sum = suite::calc_checksum(pooled);

  std::vector<double> fresh(static_cast<std::size_t>(n));
  mem::fill_random(fresh.data(), n, 1723u);
  const long double fresh_sum =
      suite::calc_checksum(fresh.data(), static_cast<suite::Index_type>(n));

  EXPECT_EQ(pooled_sum, fresh_sum);
}

TEST(MemChecksum, MatchesLegacyWithinRounding) {
  const suite::Index_type n = 50000;
  std::vector<double> data(static_cast<std::size_t>(n));
  mem::fill_random(data.data(), n, 1747u);

  const long double blocked = suite::calc_checksum(data.data(), n);
  const long double elementwise = checksum_elementwise(data.data(), n);

  EXPECT_TRUE(suite::checksums_match(blocked, elementwise, 1e-12))
      << "blocked=" << static_cast<double>(blocked)
      << " elementwise=" << static_cast<double>(elementwise);
}

TEST(MemChecksum, DetectsPermutation) {
  const suite::Index_type n = 10000;
  std::vector<double> data(static_cast<std::size_t>(n));
  mem::fill_random(data.data(), n, 1753u);
  const long double before = suite::calc_checksum(data.data(), n);
  std::swap(data[3], data[9000]);
  const long double after = suite::calc_checksum(data.data(), n);
  EXPECT_FALSE(suite::checksums_match(before, after, 1e-12));
}

// --------------------------------------------------- fault integration

TEST(MemFaults, AllocFaultFiresThroughPool) {
  faults::injector().configure("alloc@TestCell");
  {
    faults::ScopedCell cell("TestCell");
    suite::Real_vec v;
    EXPECT_THROW(suite::init_data(v, 100000, 31u), std::bad_alloc);
  }
  // Outside the cell the hook is inert.
  suite::Real_vec v;
  suite::init_data(v, 1000, 31u);
  EXPECT_EQ(v.size(), 1000u);
  faults::injector().reset();
}

TEST(MemFaults, PoolAllocateItselfThrowsInsideFaultedCell) {
  faults::injector().configure("alloc@PoolCell");
  {
    faults::ScopedCell cell("PoolCell");
    EXPECT_THROW(mem::pool().allocate(4096), std::bad_alloc);
  }
  faults::injector().reset();
}

}  // namespace
