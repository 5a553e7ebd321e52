// Algorithm group: parallel-construct probes — atomics, histogram, memory
// ops, reduction, scan, sorts (Table I, group 1).
#pragma once

#include "kernels/common.hpp"

namespace rperf::kernels::algorithm {

RPERF_DECLARE_KERNEL(ATOMIC);
RPERF_DECLARE_KERNEL(HISTOGRAM,
                     std::vector<unsigned long long,
                                 mem::PoolAllocator<unsigned long long>>
                         m_hist;);
RPERF_DECLARE_KERNEL(MEMCPY);
RPERF_DECLARE_KERNEL(MEMSET);
RPERF_DECLARE_KERNEL(REDUCE_SUM);
RPERF_DECLARE_KERNEL(SCAN);
RPERF_DECLARE_KERNEL(SORT);
RPERF_DECLARE_KERNEL(SORTPAIRS);

}  // namespace rperf::kernels::algorithm
