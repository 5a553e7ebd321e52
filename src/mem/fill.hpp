// Deterministic, block-decomposable data initialization primitives.
//
// The suite's original initializers walked a single 32-bit LCG stream
// serially; that chain dependency (~4 cycles/element) made setup a large
// fraction of sweep wall time. These fills produce *bit-identical* output
// to that serial stream while breaking the dependency two ways:
//
//   * jump-ahead: the LCG state after k steps is an affine function of the
//     initial state, computable in O(log k), so any block of the output can
//     be generated independently — fixed 4096-element blocks are dispatched
//     across OpenMP threads with a static schedule (which also first-touches
//     pages in the same distribution the OpenMP kernel variants use);
//   * lane interleave: within a block, four lanes each step the LCG by 4
//     positions (state' = A^4*state + C^4-composition), turning one serial
//     multiply chain into four independent ones the core can overlap.
//
// Because every element's value depends only on its index and the seed,
// results are identical for any thread count and any block schedule.
// Regenerating in place costs about what copying a stored master copy
// would: on a 4-vCPU VM a 7.6 MiB fill_random took 376-391 us against
// 350-363 us for a parallel blocked copy from a warm master. A new master
// also pays first-touch (32 MiB: 6.2 ms on 4 threads, 21 ms on 1, against
// 1.7 ms for a warm fill), so the suite keeps no dataset cache and fills
// in place; the pool is what keeps repeat setUp free of page faults.
#pragma once

#include <cstdint>

namespace rperf::mem {

/// Elements per independently generated block (also the checksum block
/// size in suite/data_utils). Fixed: changing it changes nothing about the
/// fill output, but keep it stable so blocking stays easy to reason about.
inline constexpr std::int64_t kFillBlockElems = 4096;

/// Below this many elements the fills skip the OpenMP dispatch entirely.
inline constexpr std::int64_t kParallelFillThreshold = 1 << 16;

/// LCG state after `steps` applications of s -> s*A + C (numerical recipes
/// constants, A = 1664525, C = 1013904223: the suite's serial generator).
[[nodiscard]] std::uint32_t lcg_skip(std::uint32_t state, std::uint64_t steps);

/// dst[i] = deterministic uniform double in (0, 1), for i in [0, n).
/// Element i is (s_{i+1} >> 8 + 0.5) / 2^24, where s_0 = seed (0 maps to 1)
/// and s_{k+1} = s_k*A + C: bit-identical to stepping the LCG serially.
void fill_random(double* dst, std::int64_t n, std::uint32_t seed);

/// dst[i] = deterministic uniform int in [lo, hi]: lo + s_{i+1} % span for
/// the same serial LCG stream as fill_random.
void fill_int_random(int* dst, std::int64_t n, int lo, int hi,
                     std::uint32_t seed);

/// dst[i] = value.
void fill_const(double* dst, std::int64_t n, double value);

/// dst[i] = lo + i * step (same expression as the historical serial ramp).
void fill_ramp(double* dst, std::int64_t n, double lo, double step);

}  // namespace rperf::mem
