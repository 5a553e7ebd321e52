// Retired dataset cache.
//
// Kernel inputs are generated in place by mem::fill_* on every setUp; the
// cache that memoized master copies is gone. What remains is the read-only
// stats() surface perfbench/driver.cpp compiles against. It always reports
// zero hits and misses, and retires with the next change to the benchmark.
#pragma once

#include <cstdint>

namespace rperf::mem {

/// Always zero; kept for perfbench/driver.cpp until the next benchmark change.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Stand-in with no store; kept for perfbench/driver.cpp until the next
/// benchmark change.
struct DataCache {
  [[nodiscard]] CacheStats stats() const { return {}; }
};

[[nodiscard]] inline const DataCache& data_cache() {
  static const DataCache instance;
  return instance;
}

}  // namespace rperf::mem
