// Unit and property tests for the rperf portability layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "port/port.hpp"

namespace {

using namespace rperf::port;

// ---------------------------------------------------------------- segments

TEST(RangeSegment, BasicProperties) {
  RangeSegment seg(3, 10);
  EXPECT_EQ(seg.begin(), 3);
  EXPECT_EQ(seg.end(), 10);
  EXPECT_EQ(seg.size(), 7);
}

TEST(RangeSegment, EmptyWhenEndBeforeBegin) {
  RangeSegment seg(10, 3);
  EXPECT_EQ(seg.size(), 0);
  int visits = 0;
  forall<seq_exec>(seg, [&](Index_type) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(RangeStrideSegment, CountsStridedIndices) {
  RangeStrideSegment seg(0, 10, 3);  // 0, 3, 6, 9
  EXPECT_EQ(seg.size(), 4);
  std::vector<Index_type> seen;
  forall<seq_exec>(seg, [&](Index_type i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<Index_type>{0, 3, 6, 9}));
}

TEST(RangeStrideSegment, RejectsNonPositiveStride) {
  EXPECT_THROW(RangeStrideSegment(0, 10, 0), std::invalid_argument);
  EXPECT_THROW(RangeStrideSegment(0, 10, -2), std::invalid_argument);
}

TEST(ListSegment, IteratesInGivenOrder) {
  ListSegment seg({4, 2, 7, 2});
  std::vector<Index_type> seen;
  forall<seq_exec>(seg, [&](Index_type i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<Index_type>{4, 2, 7, 2}));
}

TEST(ListSegment, PointerConstructorViewsAndOwnedCopiesShare) {
  const std::vector<Index_type> storage{5, 3, 1};
  const ListSegment view(storage.data(), storage.size());
  EXPECT_EQ(view.data(), storage.data());  // no copy
  EXPECT_EQ(view.size(), 3);

  ListSegment copy;
  {
    const ListSegment owned(std::vector<Index_type>{9, 8});
    copy = owned;
  }
  ASSERT_EQ(copy.size(), 2);  // outlives the segment it was copied from
  EXPECT_EQ(copy[0], 9);
  EXPECT_EQ(copy[1], 8);
}

// ------------------------------------------------------------------ forall

template <typename Policy>
class ForallPolicyTest : public ::testing::Test {};

using AllPolicies =
    ::testing::Types<seq_exec, simd_exec, omp_parallel_for_exec,
                     omp_parallel_for_simd_exec>;
TYPED_TEST_SUITE(ForallPolicyTest, AllPolicies);

TYPED_TEST(ForallPolicyTest, VisitsEveryIndexExactlyOnce) {
  const Index_type n = 10007;
  std::vector<int> hits(n, 0);
  int* h = hits.data();
  forall<TypeParam>(RangeSegment(0, n), [=](Index_type i) { h[i] += 1; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int v) { return v == 1; }));
}

TYPED_TEST(ForallPolicyTest, DaxpyMatchesReference) {
  const Index_type n = 5000;
  std::vector<double> x(n), y(n), ref(n);
  for (Index_type i = 0; i < n; ++i) {
    x[i] = 0.5 * static_cast<double>(i);
    y[i] = 1.0;
    ref[i] = y[i] + 2.0 * x[i];
  }
  double* yp = y.data();
  const double* xp = x.data();
  forall<TypeParam>(RangeSegment(0, n),
                    [=](Index_type i) { yp[i] += 2.0 * xp[i]; });
  EXPECT_EQ(y, ref);
}

TYPED_TEST(ForallPolicyTest, RespectsSubrange) {
  const Index_type n = 100;
  std::vector<int> hits(n, 0);
  int* h = hits.data();
  forall<TypeParam>(RangeSegment(10, 90), [=](Index_type i) { h[i] = 1; });
  for (Index_type i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i], (i >= 10 && i < 90) ? 1 : 0) << "index " << i;
  }
}

TEST(ForallN, CoversZeroToN) {
  std::vector<int> hits(50, 0);
  int* h = hits.data();
  forall_n<seq_exec>(50, [=](Index_type i) { h[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

// ---------------------------------------------------------------- reducers

template <typename Policy>
class ReducerPolicyTest : public ::testing::Test {};

using ReducePolicies = ::testing::Types<seq_exec, omp_parallel_for_exec>;
TYPED_TEST_SUITE(ReducerPolicyTest, ReducePolicies);

TYPED_TEST(ReducerPolicyTest, SumOfIntegers) {
  const Index_type n = 100000;
  ReduceSum<TypeParam, long long> sum(0);
  forall<TypeParam>(RangeSegment(1, n + 1),
                    [=](Index_type i) { sum += static_cast<long long>(i); });
  EXPECT_EQ(sum.get(), static_cast<long long>(n) * (n + 1) / 2);
}

TYPED_TEST(ReducerPolicyTest, SumHonorsInitialValue) {
  ReduceSum<TypeParam, long long> sum(100);
  forall<TypeParam>(RangeSegment(0, 10),
                    [=](Index_type) { sum += 1; });
  EXPECT_EQ(sum.get(), 110);
}

TYPED_TEST(ReducerPolicyTest, MinAndMaxFindExtremes) {
  const Index_type n = 9999;
  std::vector<double> data(n);
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(-1000.0, 1000.0);
  for (auto& d : data) d = dist(rng);
  data[n / 3] = -5000.0;
  data[2 * n / 3] = 5000.0;

  ReduceMin<TypeParam, double> mn;
  ReduceMax<TypeParam, double> mx;
  const double* p = data.data();
  forall<TypeParam>(RangeSegment(0, n), [=](Index_type i) {
    mn.min(p[i]);
    mx.max(p[i]);
  });
  EXPECT_DOUBLE_EQ(mn.get(), -5000.0);
  EXPECT_DOUBLE_EQ(mx.get(), 5000.0);
}

TYPED_TEST(ReducerPolicyTest, MinLocFindsValueAndIndex) {
  const Index_type n = 5001;
  std::vector<double> data(n, 7.0);
  data[1234] = -3.0;
  ReduceMinLoc<TypeParam, double> minloc;
  const double* p = data.data();
  forall<TypeParam>(RangeSegment(0, n),
                    [=](Index_type i) { minloc.minloc(p[i], i); });
  EXPECT_DOUBLE_EQ(minloc.get(), -3.0);
  EXPECT_EQ(minloc.getLoc(), 1234);
}

TYPED_TEST(ReducerPolicyTest, MinLocTieBreaksToSmallestIndex) {
  const Index_type n = 4096;
  std::vector<double> data(n, 1.0);
  data[100] = data[200] = data[3000] = -1.0;
  ReduceMinLoc<TypeParam, double> minloc;
  const double* p = data.data();
  forall<TypeParam>(RangeSegment(0, n),
                    [=](Index_type i) { minloc.minloc(p[i], i); });
  EXPECT_EQ(minloc.getLoc(), 100);
}

TYPED_TEST(ReducerPolicyTest, MaxLocFindsValueAndIndex) {
  const Index_type n = 2048;
  std::vector<double> data(n, 0.0);
  data[777] = 9.5;
  ReduceMaxLoc<TypeParam, double> maxloc;
  const double* p = data.data();
  forall<TypeParam>(RangeSegment(0, n),
                    [=](Index_type i) { maxloc.maxloc(p[i], i); });
  EXPECT_DOUBLE_EQ(maxloc.get(), 9.5);
  EXPECT_EQ(maxloc.getLoc(), 777);
}

TYPED_TEST(ReducerPolicyTest, ResetClearsAccumulation) {
  ReduceSum<TypeParam, long long> sum(0);
  forall<TypeParam>(RangeSegment(0, 100), [=](Index_type) { sum += 1; });
  EXPECT_EQ(sum.get(), 100);
  sum.reset(5);
  EXPECT_EQ(sum.get(), 5);
  forall<TypeParam>(RangeSegment(0, 10), [=](Index_type) { sum += 1; });
  EXPECT_EQ(sum.get(), 15);
}

// ------------------------------------------------------------------- scans

template <typename Policy>
class ScanPolicyTest : public ::testing::Test {};
TYPED_TEST_SUITE(ScanPolicyTest, ReducePolicies);

TYPED_TEST(ScanPolicyTest, ExclusiveMatchesStd) {
  for (Index_type n : {0, 1, 7, 1000, 65536}) {
    std::vector<long long> in(n), out(n), ref(n);
    for (Index_type i = 0; i < n; ++i) in[i] = (i * 7919) % 13 - 6;
    std::exclusive_scan(in.begin(), in.end(), ref.begin(), 0LL);
    exclusive_scan<TypeParam>(in.data(), out.data(), n, 0LL);
    EXPECT_EQ(out, ref) << "n=" << n;
  }
}

TYPED_TEST(ScanPolicyTest, InclusiveMatchesStd) {
  for (Index_type n : {0, 1, 7, 1000, 65536}) {
    std::vector<long long> in(n), out(n), ref(n);
    for (Index_type i = 0; i < n; ++i) in[i] = (i * 104729) % 17 - 8;
    std::inclusive_scan(in.begin(), in.end(), ref.begin());
    inclusive_scan<TypeParam>(in.data(), out.data(), n);
    EXPECT_EQ(out, ref) << "n=" << n;
  }
}

TYPED_TEST(ScanPolicyTest, ExclusiveHonorsInit) {
  std::vector<long long> in{1, 2, 3}, out(3);
  exclusive_scan<TypeParam>(in.data(), out.data(), 3, 100LL);
  EXPECT_EQ(out, (std::vector<long long>{100, 101, 103}));
}

// ------------------------------------------------------------------- sorts

template <typename Policy>
class SortPolicyTest : public ::testing::Test {};
TYPED_TEST_SUITE(SortPolicyTest, ReducePolicies);

TYPED_TEST(SortPolicyTest, SortsRandomData) {
  for (Index_type n : {0, 1, 2, 1023, 100000}) {
    std::vector<double> data(n);
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> dist(-1e6, 1e6);
    for (auto& d : data) d = dist(rng);
    std::vector<double> ref = data;
    std::sort(ref.begin(), ref.end());
    sort<TypeParam>(data.data(), n);
    EXPECT_EQ(data, ref) << "n=" << n;
  }
}

TYPED_TEST(SortPolicyTest, SortsWithCustomComparator) {
  const Index_type n = 50000;
  std::vector<int> data(n);
  std::mt19937 rng(11);
  for (auto& d : data) d = static_cast<int>(rng() % 1000);
  std::vector<int> ref = data;
  std::sort(ref.begin(), ref.end(), std::greater<int>{});
  sort<TypeParam>(data.data(), n, std::greater<int>{});
  EXPECT_EQ(data, ref);
}

TYPED_TEST(SortPolicyTest, SortPairsKeepsKeyValueAssociation) {
  const Index_type n = 30000;
  std::vector<int> keys(n);
  std::vector<double> values(n);
  std::mt19937 rng(13);
  for (Index_type i = 0; i < n; ++i) {
    keys[i] = static_cast<int>(rng() % 5000);
    values[i] = static_cast<double>(keys[i]) * 2.5;  // derived from key
  }
  sort_pairs<TypeParam>(keys.data(), values.data(), n);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (Index_type i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(values[i], static_cast<double>(keys[i]) * 2.5);
  }
}

TYPED_TEST(SortPolicyTest, SortPairsIsStable) {
  // Values record original position; equal keys must keep input order.
  const Index_type n = 10000;
  std::vector<int> keys(n);
  std::vector<double> values(n);
  std::mt19937 rng(17);
  for (Index_type i = 0; i < n; ++i) {
    keys[i] = static_cast<int>(rng() % 5);  // many duplicates
    values[i] = static_cast<double>(i);
  }
  sort_pairs<TypeParam>(keys.data(), values.data(), n);
  for (Index_type i = 1; i < n; ++i) {
    if (keys[i] == keys[i - 1]) {
      EXPECT_LT(values[i - 1], values[i]) << "stability broken at " << i;
    }
  }
}

// ----------------------------------------------------------------- atomics

TEST(Atomic, ParallelAtomicAddSumsExactlyForIntegers) {
  const Index_type n = 200000;
  long long total = 0;
  long long* t = &total;
  forall<omp_parallel_for_exec>(RangeSegment(0, n),
                                [=](Index_type) { atomicAdd(t, 1LL); });
  EXPECT_EQ(total, n);
}

TEST(Atomic, ParallelAtomicAddDoubleIsCorrectToRounding) {
  const Index_type n = 100000;
  double total = 0.0;
  double* t = &total;
  forall<omp_parallel_for_exec>(RangeSegment(0, n),
                                [=](Index_type) { atomicAdd(t, 0.5); });
  EXPECT_NEAR(total, 0.5 * static_cast<double>(n), 1e-6);
}

TEST(Atomic, MinMaxConvergeUnderContention) {
  const Index_type n = 100000;
  int mn = 1 << 30;
  int mx = -(1 << 30);
  int* pmn = &mn;
  int* pmx = &mx;
  forall<omp_parallel_for_exec>(RangeSegment(0, n), [=](Index_type i) {
    const int v = static_cast<int>((i * 2654435761u) % 1000003u);
    atomicMin(pmn, v);
    atomicMax(pmx, v);
  });
  int ref_mn = 1 << 30, ref_mx = -(1 << 30);
  for (Index_type i = 0; i < n; ++i) {
    const int v = static_cast<int>((i * 2654435761u) % 1000003u);
    ref_mn = std::min(ref_mn, v);
    ref_mx = std::max(ref_mx, v);
  }
  EXPECT_EQ(mn, ref_mn);
  EXPECT_EQ(mx, ref_mx);
}

TEST(Atomic, ExchangeReturnsPrevious) {
  int x = 5;
  EXPECT_EQ(atomicExchange(&x, 9), 5);
  EXPECT_EQ(x, 9);
}

// ------------------------------------------------------------------- views

TEST(Layout, RowMajorStrides) {
  Layout<3> layout(4, 5, 6);
  EXPECT_EQ(layout.size(), 120);
  EXPECT_EQ(layout.stride(0), 30);
  EXPECT_EQ(layout.stride(1), 6);
  EXPECT_EQ(layout.stride(2), 1);
  EXPECT_EQ(layout(0, 0, 0), 0);
  EXPECT_EQ(layout(1, 2, 3), 30 + 12 + 3);
  EXPECT_EQ(layout(3, 4, 5), 119);
}

TEST(Layout, PermutedLayoutTransposesStrides) {
  // perm {1, 0}: dimension 1 is slowest — column-major for 2-D.
  Layout<2> layout({3, 4}, {1, 0});
  EXPECT_EQ(layout.stride(0), 1);
  EXPECT_EQ(layout.stride(1), 3);
  // All offsets still distinct and within range.
  std::vector<int> seen(12, 0);
  for (Index_type i = 0; i < 3; ++i) {
    for (Index_type j = 0; j < 4; ++j) {
      const Index_type off = layout(i, j);
      ASSERT_GE(off, 0);
      ASSERT_LT(off, 12);
      seen[static_cast<std::size_t>(off)]++;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int v) { return v == 1; }));
}

TEST(Layout, RejectsInvalidPermutation) {
  EXPECT_THROW((Layout<2>({3, 4}, {0, 0})), std::invalid_argument);
  EXPECT_THROW((Layout<2>({3, 4}, {0, 5})), std::invalid_argument);
}

TEST(View, IndexesUnderlyingStorage) {
  std::vector<double> data(24, 0.0);
  View<double, 2> v(data.data(), 4, 6);
  v(2, 3) = 42.0;
  EXPECT_DOUBLE_EQ(data[2 * 6 + 3], 42.0);
  EXPECT_DOUBLE_EQ(v(2, 3), 42.0);
}

TEST(View, MatchesManualIndexingIn3D) {
  const Index_type ni = 3, nj = 4, nk = 5;
  std::vector<double> data(ni * nj * nk);
  View<double, 3> v(data.data(), ni, nj, nk);
  for (Index_type i = 0; i < ni; ++i) {
    for (Index_type j = 0; j < nj; ++j) {
      for (Index_type k = 0; k < nk; ++k) {
        v(i, j, k) = static_cast<double>(100 * i + 10 * j + k);
      }
    }
  }
  for (Index_type i = 0; i < ni; ++i) {
    for (Index_type j = 0; j < nj; ++j) {
      for (Index_type k = 0; k < nk; ++k) {
        EXPECT_DOUBLE_EQ(data[(i * nj + j) * nk + k],
                         static_cast<double>(100 * i + 10 * j + k));
      }
    }
  }
}

// --------------------------------------------------------------- index sets

TEST(TypedIndexSet, SizeSumsSegments) {
  TypedIndexSet iset;
  iset.push_back(RangeSegment(0, 10));
  iset.push_back(RangeStrideSegment(100, 110, 2));
  iset.push_back(ListSegment({7, 8, 9}));
  EXPECT_EQ(iset.num_segments(), 3u);
  EXPECT_EQ(iset.size(), 10 + 5 + 3);
}

TEST(TypedIndexSet, ForallVisitsAllSegmentsInOrder) {
  TypedIndexSet iset;
  iset.push_back(RangeSegment(0, 3));
  iset.push_back(ListSegment({10, 12}));
  iset.push_back(RangeStrideSegment(20, 25, 2));
  std::vector<Index_type> seen;
  forall<seq_exec>(iset, [&](Index_type i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<Index_type>{0, 1, 2, 10, 12, 20, 22, 24}));
}

TEST(TypedIndexSet, OpenMPForallCoversEveryIndexOnce) {
  TypedIndexSet iset;
  iset.push_back(RangeSegment(0, 500));
  std::vector<Index_type> list;
  for (Index_type i = 500; i < 1000; i += 3) list.push_back(i);
  iset.push_back(ListSegment(std::move(list)));
  std::vector<int> hits(1000, 0);
  int* h = hits.data();
  forall<omp_parallel_for_exec>(iset, [=](Index_type i) { h[i] += 1; });
  for (Index_type i = 0; i < 500; ++i) EXPECT_EQ(hits[i], 1);
  for (Index_type i = 500; i < 1000; ++i) {
    EXPECT_EQ(hits[i], (i - 500) % 3 == 0 ? 1 : 0) << i;
  }
}

TEST(TypedIndexSet, EmptySetIsANoop) {
  TypedIndexSet iset;
  int visits = 0;
  forall<seq_exec>(iset, [&](Index_type) { ++visits; });
  EXPECT_EQ(visits, 0);
  EXPECT_EQ(iset.size(), 0);
}

// ------------------------------------------------------------ nested loops

template <typename Policy>
class NestedPolicyTest : public ::testing::Test {};
TYPED_TEST_SUITE(NestedPolicyTest, ReducePolicies);

TYPED_TEST(NestedPolicyTest, Forall2DCoversRectangle) {
  const Index_type ni = 37, nj = 53;
  std::vector<int> hits(ni * nj, 0);
  int* h = hits.data();
  forall_2d<TypeParam>(RangeSegment(0, ni), RangeSegment(0, nj),
                       [=](Index_type i, Index_type j) { h[i * nj + j]++; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int v) { return v == 1; }));
}

TYPED_TEST(NestedPolicyTest, Forall3DCoversBox) {
  const Index_type ni = 7, nj = 9, nk = 11;
  std::vector<int> hits(ni * nj * nk, 0);
  int* h = hits.data();
  forall_3d<TypeParam>(
      RangeSegment(0, ni), RangeSegment(0, nj), RangeSegment(0, nk),
      [=](Index_type i, Index_type j, Index_type k) {
        h[(i * nj + j) * nk + k]++;
      });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int v) { return v == 1; }));
}

TYPED_TEST(NestedPolicyTest, ForallOuterPreservesInnerOrder) {
  // Inner loop carries a dependence; verify sequential inner execution.
  const Index_type ni = 16, nj = 100;
  std::vector<double> acc(ni, 0.0);
  double* a = acc.data();
  forall_outer<TypeParam>(RangeSegment(0, ni), RangeSegment(1, nj),
                          [=](Index_type i, Index_type j) {
                            a[i] = a[i] * 0.5 + static_cast<double>(j);
                          });
  // Reference
  std::vector<double> ref(ni, 0.0);
  for (Index_type i = 0; i < ni; ++i) {
    for (Index_type j = 1; j < nj; ++j) {
      ref[i] = ref[i] * 0.5 + static_cast<double>(j);
    }
  }
  for (Index_type i = 0; i < ni; ++i) {
    EXPECT_DOUBLE_EQ(acc[i], ref[i]);
  }
}

}  // namespace
