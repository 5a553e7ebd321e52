// Whole-suite parameterized tests: every Table I kernel is exercised for
// metadata sanity, cross-variant checksum agreement, determinism (its
// declared class and the parity bound), and analytic-metric scaling.
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <string>

#include "instrument/channel.hpp"
#include "suite/data_utils.hpp"
#include "suite/registry.hpp"

namespace {

using namespace rperf::suite;

RunParams tiny_params() {
  RunParams p;
  p.size_factor = 0.004;  // a few thousand elements
  p.reps_factor = 0.0;    // clamped up to min_reps
  p.min_reps = 2;
  return p;
}

/// Sets the OpenMP team size for one scope: the determinism checks run on
/// a fixed 4-thread team whatever the host's core count.
class OmpThreads {
 public:
  explicit OmpThreads(int n) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~OmpThreads() { omp_set_num_threads(saved_); }
  OmpThreads(const OmpThreads&) = delete;
  OmpThreads& operator=(const OmpThreads&) = delete;

 private:
  int saved_;
};

class KernelSuiteTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelSuiteTest,
    ::testing::ValuesIn(all_kernel_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;  // kernel names are valid test identifiers
    });

TEST_P(KernelSuiteTest, DeclaresSaneMetadata) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  EXPECT_EQ(kernel->name(), GetParam());
  EXPECT_FALSE(kernel->variants().empty());
  EXPECT_GT(kernel->default_prob_size(), 0);
  EXPECT_GT(kernel->actual_prob_size(), 0);
  EXPECT_GE(kernel->run_reps(), 2);
  EXPECT_FALSE(kernel->features().empty());
}

TEST_P(KernelSuiteTest, DeclaresUsableTraits) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  const auto& t = kernel->traits();
  // Every kernel moves data or computes — never neither.
  EXPECT_GT(t.bytes_total() + t.flops, 0.0);
  EXPECT_GE(t.bytes_read, 0.0);
  EXPECT_GE(t.bytes_written, 0.0);
  EXPECT_GE(t.flops, 0.0);
  EXPECT_GT(t.working_set_bytes, 0.0);
  EXPECT_GT(t.avg_parallelism, 0.0);
  EXPECT_GT(t.fp_eff_cpu, 0.0);
  EXPECT_GT(t.fp_eff_gpu, 0.0);
  EXPECT_GE(t.launches_per_rep, 1);
  EXPECT_GE(t.vector_fraction, 0.0);
  EXPECT_LE(t.vector_fraction, 1.0);
}

TEST_P(KernelSuiteTest, AllVariantsAgreeOnChecksum) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  rperf::cali::Channel channel;
  long double reference = 0.0L;
  bool have_reference = false;
  for (VariantID v : kernel->variants()) {
    kernel->execute(v, channel);
    const long double cs = kernel->checksum(v);
    if (!have_reference) {
      reference = cs;
      have_reference = true;
      continue;
    }
    EXPECT_TRUE(checksums_match(reference, cs, 1e-7))
        << GetParam() << " " << to_string(v) << ": "
        << static_cast<double>(reference) << " vs "
        << static_cast<double>(cs);
  }
}

TEST_P(KernelSuiteTest, ExecutionIsDeterministic) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  rperf::cali::Channel channel;
  kernel->execute(VariantID::Base_Seq, channel);
  const long double first = kernel->checksum(VariantID::Base_Seq);
  kernel->execute(VariantID::Base_Seq, channel);
  EXPECT_EQ(first, kernel->checksum(VariantID::Base_Seq)) << GetParam();
}

TEST_P(KernelSuiteTest, DeclaresItsDeterminismClass) {
  // Only PI_ATOMIC's contended atomic adds one sum's addends in thread-
  // schedule order. REDUCE_STRUCT, MULTI_REDUCE and NODAL_ACCUMULATION_3D
  // also sum in parallel (reduction clause, atomics), yet stay bit-exact:
  // fill_random values are odd multiples of 2^-25 in (0, 1), so any sum of
  // fewer than 2^28 of them is a multiple of 2^-25 below 2^28 and fits in
  // a double's 53 bits exactly, in any order. (NODAL_ACCUMULATION_3D adds
  // 0.125x those values, multiples of 2^-28, at most 8 per node.)
  const auto kernel = make_kernel(GetParam(), tiny_params());
  const Determinism expected = GetParam() == "Basic_PI_ATOMIC"
                                   ? Determinism::OrderDependent
                                   : Determinism::BitExact;
  EXPECT_EQ(to_string(kernel->determinism()), to_string(expected))
      << GetParam();
}

TEST_P(KernelSuiteTest, OpenMPRunsAgreeUnderTheirDeterminismClass) {
  // What the class promises for the sandbox parity check, seen in one
  // process: re-running an OpenMP cell on the same team size reproduces
  // its checksum bit for bit, or within parity_bound when order_dependent.
  const OmpThreads team(4);
  const auto kernel = make_kernel(GetParam(), tiny_params());
  rperf::cali::Channel channel;
  for (VariantID v : kernel->variants()) {
    if (!is_openmp_variant(v)) continue;
    kernel->execute(v, channel);
    const long double first = kernel->checksum(v);
    for (int run = 0; run < 3; ++run) {
      kernel->execute(v, channel);
      const long double again = kernel->checksum(v);
      EXPECT_TRUE(checksums_agree(kernel->parity_bound(v, first), first,
                                  again))
          << GetParam() << " " << to_string(v) << ": "
          << static_cast<double>(first) << " vs "
          << static_cast<double>(again);
    }
  }
}

TEST_P(KernelSuiteTest, ExecuteAnnotatesTheKernelRegion) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  rperf::cali::Channel channel;
  kernel->execute(kernel->variants().front(), channel);
  const auto* node = channel.root().find(kernel->name());
  ASSERT_NE(node, nullptr) << GetParam();
  EXPECT_GE(node->visit_count, 1u);
  EXPECT_TRUE(node->metrics.count("bytes_read"));
  EXPECT_TRUE(node->metrics.count("flops"));
  EXPECT_TRUE(node->metrics.count("problem_size"));
}

TEST_P(KernelSuiteTest, AnalyticMetricsGrowWithProblemSize) {
  RunParams small = tiny_params();
  RunParams big = tiny_params();
  big.size_factor = small.size_factor * 8.0;
  const auto k_small = make_kernel(GetParam(), small);
  const auto k_big = make_kernel(GetParam(), big);
  // Combined work: quadrature kernels (PI, TRAP_INT) move O(1) bytes but
  // their flops scale; everything else scales in bytes. Surface-complexity
  // Comm kernels grow slower (n^{2/3} of an 8x volume is 4x), sorts and
  // matmuls faster — 2x is a safe lower bound for an 8x size increase.
  const double w_small =
      k_small->traits().bytes_total() + k_small->traits().flops;
  const double w_big = k_big->traits().bytes_total() + k_big->traits().flops;
  EXPECT_GT(w_big, 2.0 * w_small) << GetParam();
}

// ------------------------------------------------ determinism contract

TEST(SumReductionTest, OpenMPCellsAreBitIdenticalRunToRun) {
  // run_sum_reduction's Base/Lambda OpenMP variants fold per-thread
  // partials in thread order; a reduction(+ : sum) clause folds them in
  // arrival order, and its last digits moved between runs of one cell.
  const OmpThreads team(4);
  RunParams p = tiny_params();
  p.size_factor = 0.01;
  p.min_reps = 1;  // each execute() is one independent sample either way
  rperf::cali::Channel channel;
  for (const char* name : {"Basic_PI_REDUCE", "Stream_DOT", "Basic_TRAP_INT",
                           "Algorithm_REDUCE_SUM"}) {
    const auto kernel = make_kernel(name, p);
    for (VariantID v : {VariantID::Base_OpenMP, VariantID::Lambda_OpenMP}) {
      kernel->execute(v, channel);
      const long double first = kernel->checksum(v);
      int differing = 0;
      for (int run = 1; run < 30; ++run) {
        kernel->execute(v, channel);
        if (kernel->checksum(v) != first) ++differing;
      }
      EXPECT_EQ(differing, 0) << name << " " << to_string(v);
    }
  }
}

/// Higham's bound restated from its definition (KernelBase::parity_bound's
/// documentation): 2 gamma_{n-1} |c| / (1 - gamma_{n-1}), u = 2^-53.
long double higham_bound(long double n, long double c) {
  const long double u = std::ldexp(1.0L, -53);
  const long double gamma = (n - 1) * u / (1 - (n - 1) * u);
  return 2 * gamma * std::fabs(c) / (1 - gamma);
}

TEST(ParityBoundTest, IsZeroForOneAddend) {
  RunParams p = tiny_params();
  p.size_override = 1;
  const auto pi = make_kernel("Basic_PI_ATOMIC", p);
  EXPECT_EQ(pi->parity_bound(VariantID::Base_OpenMP, 4.0L), 0.0L);
}

TEST(ParityBoundTest, MatchesHighamAtSmokeSize) {
  RunParams p = tiny_params();
  p.size_factor = 0.01;  // the perf_sweep_throughput_smoke size
  const auto pi = make_kernel("Basic_PI_ATOMIC", p);
  ASSERT_EQ(pi->actual_prob_size(), 5000);
  const long double c = 3.141592653589793L;
  for (VariantID v : {VariantID::Base_OpenMP, VariantID::Lambda_OpenMP,
                      VariantID::RAJA_OpenMP}) {
    const long double bound = pi->parity_bound(v, c);
    EXPECT_NEAR(static_cast<double>(bound),
                static_cast<double>(higham_bound(5000, c)), 1e-24)
        << to_string(v);
    EXPECT_NEAR(static_cast<double>(bound), 3.49e-12, 0.01e-12);
    EXPECT_EQ(pi->parity_bound(v, -c), bound);  // |c|
  }
  // Seq cells of the same kernel stay bit-exact.
  for (VariantID v :
       {VariantID::Base_Seq, VariantID::Lambda_Seq, VariantID::RAJA_Seq}) {
    EXPECT_EQ(pi->parity_bound(v, c), 0.0L) << to_string(v);
  }
}

TEST(ParityBoundTest, RejectsOneUlpPastTheBound) {
  RunParams p = tiny_params();
  p.size_factor = 0.01;
  const auto pi = make_kernel("Basic_PI_ATOMIC", p);
  const VariantID v = VariantID::Base_OpenMP;
  const double c = 3.141592653589793;
  const long double bound = pi->parity_bound(v, c);
  ASSERT_GT(bound, 0.0L);
  // Checksums are doubles widened to long double: step c by whole double
  // ulps (one binade, so the step is constant) up to the bound and past it.
  const double ulp = std::nextafter(c, 4.0) - c;
  const double steps = std::floor(static_cast<double>(bound) / ulp);
  for (double sign : {1.0, -1.0}) {
    const double inside = c + sign * steps * ulp;
    const double past = c + sign * (steps + 1) * ulp;
    EXPECT_TRUE(checksums_agree(bound, c, inside)) << sign;
    EXPECT_FALSE(checksums_agree(bound, c, past)) << sign;
  }
}

TEST(ParityBoundTest, BitExactCellsRejectOneUlp) {
  RunParams p = tiny_params();
  p.size_factor = 0.01;
  const double c = 3.141592653589793;
  const double up = std::nextafter(c, 4.0);
  const double down = std::nextafter(c, 3.0);
  const auto dot = make_kernel("Stream_DOT", p);
  ASSERT_EQ(dot->determinism(), Determinism::BitExact);
  for (VariantID v : dot->variants()) {
    const long double bound = dot->parity_bound(v, c);
    EXPECT_EQ(bound, 0.0L) << to_string(v);
    EXPECT_TRUE(checksums_agree(bound, c, c)) << to_string(v);
    EXPECT_FALSE(checksums_agree(bound, c, up)) << to_string(v);
    EXPECT_FALSE(checksums_agree(bound, c, down)) << to_string(v);
  }
  // An order_dependent kernel's Seq cells are held to the same ==.
  const auto pi = make_kernel("Basic_PI_ATOMIC", p);
  EXPECT_FALSE(
      checksums_agree(pi->parity_bound(VariantID::Base_Seq, c), c, up));
  EXPECT_FALSE(
      checksums_agree(pi->parity_bound(VariantID::RAJA_Seq, c), c, down));
}

}  // namespace
