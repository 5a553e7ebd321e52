// Repeat setUp allocates nothing outside the pool.
//
// Every kernel working set lives on mem::Pool, so once a kernel's first
// cell has warmed the pool's size classes, its next cell must neither take
// new chunks from the OS (pool os_allocs) nor allocate large buffers
// around the pool. This binary replaces the global operator new to count
// allocations of 64 KiB or more; each kernel runs its Base_Seq cell twice
// (its own process under ctest) and the second cell must count none.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>

#include "instrument/channel.hpp"
#include "mem/pool.hpp"
#include "suite/registry.hpp"

namespace {

constexpr std::size_t kLargeBytes = 64 * 1024;
std::atomic<std::uint64_t> g_large_allocs{0};

void* counted_alloc(std::size_t bytes, std::size_t align) {
  if (bytes >= kLargeBytes) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (bytes == 0) bytes = 1;
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (bytes + align - 1) / align * align);
  } else {
    p = std::malloc(bytes);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
// The nothrow forms too (std::stable_sort takes its buffer through them),
// so every allocation pairs with the free() below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, static_cast<std::size_t>(a));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t& t) noexcept {
  return ::operator new(n, a, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace rperf::suite;

/// Kernels whose Base_Seq timed loop allocates scratch by design, so every
/// cell allocates outside the pool whatever its setUp does. Their pool
/// traffic is still checked, and each must keep allocating, so the list
/// cannot go stale.
///   Algorithm_SORTPAIRS: the index permutation it sorts, plus
///     std::stable_sort's merge buffer, per rep. (The port::sort and
///     port::scan paths allocate likewise, but only in variants this test
///     does not run.)
const std::set<std::string>& timed_loop_allocators() {
  static const std::set<std::string> names = {"Algorithm_SORTPAIRS"};
  return names;
}

class SetupAllocTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SetupAllocTest, ::testing::ValuesIn(all_kernel_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;  // kernel names are valid test identifiers
    });

TEST_P(SetupAllocTest, RepeatCellAllocatesNothingOutsidePool) {
  RunParams params;
  params.size_factor = 0.05;
  params.reps_factor = 0.0;  // clamped up to min_reps
  params.min_reps = 1;
  const auto kernel = make_kernel(GetParam(), params);
  if (!kernel->has_variant(VariantID::Base_Seq)) GTEST_SKIP();
  rperf::cali::Channel channel;

  kernel->execute(VariantID::Base_Seq, channel);  // warms the pool
  const std::uint64_t os_before = rperf::mem::pool().stats().os_allocs;
  const std::uint64_t large_before = g_large_allocs.load();
  kernel->execute(VariantID::Base_Seq, channel);
  const std::uint64_t large = g_large_allocs.load() - large_before;

  EXPECT_EQ(rperf::mem::pool().stats().os_allocs, os_before)
      << GetParam() << ": repeat cell took new chunks from the OS";
  if (timed_loop_allocators().count(GetParam()) != 0) {
    EXPECT_GT(large, 0u) << GetParam()
                         << " no longer allocates in its timed loop; "
                            "drop it from the allowlist";
  } else {
    EXPECT_EQ(large, 0u) << GetParam() << ": " << large
                         << " allocations of >= 64 KiB outside the pool";
  }
}

}  // namespace
