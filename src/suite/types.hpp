// Enumerations shared across the kernel suite: groups, variants, features,
// and complexity classes — mirroring Table I of the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "port/range.hpp"

namespace rperf::suite {

using port::Index_type;

/// The seven kernel groups of Table I.
enum class GroupID {
  Algorithm,
  Apps,
  Basic,
  Comm,
  Lcals,
  Polybench,
  Stream,
};

/// Programming-model variants. Base_* is the direct implementation in the
/// programming model; RAJA_* goes through the rperf portability layer;
/// Lambda_* isolates the cost of C++ lambdas without the layer.
enum class VariantID {
  Base_Seq,
  Lambda_Seq,
  RAJA_Seq,
  Base_OpenMP,
  Lambda_OpenMP,
  RAJA_OpenMP,
};

/// RAJA features a kernel exercises (Table I feature columns).
enum class FeatureID : std::uint32_t {
  Forall = 1u << 0,
  Kernel = 1u << 1,   // nested loops
  Sort = 1u << 2,
  Scan = 1u << 3,
  Reduction = 1u << 4,
  Atomic = 1u << 5,
  View = 1u << 6,
  Workgroup = 1u << 7, // message packing (Comm)
};

/// Outcome of one (kernel, variant, tuning) cell of the sweep.
/// Crashed/OutOfMemory/Killed are produced only by sandboxed execution
/// (--isolate), where a worker process absorbs failure modes
/// that in-process isolation cannot survive.
enum class RunStatus {
  Passed,           ///< executed, finite checksum recorded
  Failed,           ///< exception escaped the kernel lifecycle
  ChecksumInvalid,  ///< executed but produced a NaN/Inf checksum
  TimedOut,         ///< exceeded the per-kernel wall-clock budget
  Skipped,          ///< not executed (resume hit, quarantine, or stop)
  Crashed,          ///< worker died on a fatal signal (SIGSEGV, SIGABRT, ...)
  OutOfMemory,      ///< worker exhausted memory (rlimit or allocation failure)
  Killed,           ///< worker killed by the parent (hang deadline, CPU limit)
};

/// Process-isolation granularity of the sweep (--isolate).
enum class IsolationMode {
  None,    ///< cells run in the parent process (PR-1 in-process guards)
  Kernel,  ///< worker processes; without --workers, a fresh one per kernel
  Cell,    ///< worker processes; without --workers, a fresh one per
           ///< (kernel, variant, tuning)
};

/// Computational complexity relative to problem (storage) size.
enum class Complexity {
  N,        // O(n)
  N_log_N,  // sorts
  N_3_2,    // matrix-matrix style, O(n^{3/2}) relative to storage
  N_2_3,    // surface work on a volume decomposition (halo exchange)
};

[[nodiscard]] std::string to_string(GroupID g);
[[nodiscard]] std::string to_string(VariantID v);
[[nodiscard]] std::string to_string(Complexity c);
[[nodiscard]] std::string to_string(FeatureID f);
[[nodiscard]] std::string to_string(RunStatus s);
[[nodiscard]] std::string to_string(IsolationMode m);

/// Every terminal RunStatus, in enum order (used for taxonomy tables).
[[nodiscard]] const std::vector<RunStatus>& all_run_statuses();

[[nodiscard]] const std::vector<GroupID>& all_groups();
[[nodiscard]] const std::vector<VariantID>& all_variants();

/// Parse helpers; throw std::invalid_argument on unknown names.
[[nodiscard]] GroupID group_from_string(const std::string& s);
[[nodiscard]] VariantID variant_from_string(const std::string& s);
[[nodiscard]] RunStatus run_status_from_string(const std::string& s);
[[nodiscard]] IsolationMode isolation_from_string(const std::string& s);

/// True for variants that execute through the portability layer.
[[nodiscard]] bool is_raja_variant(VariantID v);
/// True for OpenMP-parallel variants.
[[nodiscard]] bool is_openmp_variant(VariantID v);

}  // namespace rperf::suite
