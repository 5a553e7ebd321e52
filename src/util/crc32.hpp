// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) shared by every
// layer that frames bytes for integrity: the sandbox pipe protocol
// (sandbox/protocol.hpp) and the profile store's on-disk record and
// footer framing (src/store/). One implementation, one table set — a
// checksum written by any layer verifies in any other.
//
// Two entry points:
//   crc32_bytewise  classic byte-at-a-time table walk, kept as the
//                   independent reference the fast path is parity-tested
//                   and micro-benchmarked against (bench/crc_bench.cpp,
//                   tests/test_store_query.cpp)
//   crc32           slice-by-8: eight precomputed tables fold eight bytes
//                   per step with no inter-byte dependency chain (~5x the
//                   bytewise throughput on the pool's frame sizes)
#pragma once

#include <cstdint>
#include <cstring>

namespace rperf::util {

namespace detail {
/// Slice-by-8 CRC-32 tables: t[0] is the classic byte-at-a-time table,
/// t[k] advances a byte through k additional zero bytes, so eight bytes
/// fold per iteration with no inter-byte dependency chain.
struct Crc32Tables {
  std::uint32_t t[8][256];
};
[[nodiscard]] inline const Crc32Tables& crc32_tables() {
  static const auto tables = [] {
    Crc32Tables tb{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tb.t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = tb.t[0][i];
      for (int k = 1; k < 8; ++k) {
        c = tb.t[0][c & 0xFFu] ^ (c >> 8);
        tb.t[k][i] = c;
      }
    }
    return tb;
  }();
  return tables;
}
}  // namespace detail

/// Reference byte-at-a-time CRC-32 (IEEE 802.3, reflected). Kept as the
/// independent implementation the slice-by-8 path is verified and
/// micro-benchmarked against.
[[nodiscard]] inline std::uint32_t crc32_bytewise(const void* data,
                                                 std::size_t n) {
  const auto& tb = detail::crc32_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = tb.t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// CRC-32 (IEEE 802.3, reflected) of `data`, slice-by-8: processes eight
/// bytes per step through eight precomputed tables. Same polynomial and
/// result as crc32_bytewise on every input.
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t n) {
  const auto& tb = detail::crc32_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);      // little-endian hosts only (as is the repo)
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tb.t[7][lo & 0xFFu] ^ tb.t[6][(lo >> 8) & 0xFFu] ^
        tb.t[5][(lo >> 16) & 0xFFu] ^ tb.t[4][lo >> 24] ^
        tb.t[3][hi & 0xFFu] ^ tb.t[2][(hi >> 8) & 0xFFu] ^
        tb.t[1][(hi >> 16) & 0xFFu] ^ tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = tb.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace rperf::util
