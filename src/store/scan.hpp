// The store's one record-reassembly routine, shared by writer recovery,
// the reader, fsck, the seal-time footer builder, and the query
// planner's point lookups — so every consumer agrees byte-for-byte on
// what "committed" means.
//
// Everything here operates on std::string_view, so callers can hand in
// an mmap'd segment (store::MappedFile) and records are decoded in
// place: no read()+copy of files a query only touches a few frames of.
// CRC is verified per touched frame, exactly as the streaming scan
// always did.
//
// scan_ledger() is the whole-store cold scan. Sealed segments are
// independent scan units (a run never spans a seal, and the first seq
// of a file may only jump forward), so segment scans fan out across a
// small thread pool and are joined in ledger order with the cross-file
// sequence check re-applied at the join — the result is bit-identical
// to the sequential scan for any thread count. It reads each segment
// whole (store::read_file_into) instead of mapping it, since it decodes
// every byte anyway.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/index.hpp"
#include "store/store.hpp"

namespace rperf::store {

/// Per-run index info gathered during a scan: the footer entry the run
/// would get, plus its committed cells' kernel names (bloom input).
struct RunIndexInfo {
  FooterRun entry;
  std::vector<std::string> kernels;
};

/// Result of scanning one records region.
struct RecordsScan {
  std::uint64_t committed_end = 0;  ///< bytes that are committed state
  std::uint64_t stop_pos = 0;       ///< offset where scanning stopped
  bool clean = false;               ///< every byte accounted for
  std::string why;                  ///< first problem (clean => empty)
  std::uint64_t first_seq = 0;      ///< seq of first valid record (0 none)
  std::uint64_t committed_seq = 0;  ///< seq of last *applied* marker
  std::size_t committed_cells = 0;
  std::vector<StoredRun> runs;      ///< committed runs, append order
  std::vector<RunIndexInfo> index;  ///< parallel to runs
};

/// Scan framed records in data[begin, end). Committed state advances
/// only at valid commit markers; any structural violation — bad magic,
/// bad length, CRC mismatch, sequence break, undecodable payload,
/// orphan marker — stops the scan at that point (fail closed). The
/// first record's seq must exceed `prev_seq`; later seqs step by
/// exactly 1. A nonzero `stop_after_seq` ends the scan cleanly right
/// after the marker with that seq is applied (point lookups).
/// `footer_runs`, when given, are the segment footer's claims in append
/// order; they only size each run's cell vector up front (bounded by the
/// region's frame count), so a lying footer costs capacity, never
/// correctness.
[[nodiscard]] RecordsScan scan_records(
    std::string_view data, std::size_t begin, std::size_t end,
    std::uint64_t prev_seq, const std::string& file,
    std::uint64_t stop_after_seq = 0,
    const std::vector<FooterRun>* footer_runs = nullptr);

/// One sealed segment, scanned: footer probe + full record decode.
/// `data_clean` covers the *records* only — an unreadable footer leaves
/// it true (index fail-open), while record damage or trailing garbage
/// behind a complete footer makes it false (data fail-closed).
struct SegmentScan {
  std::string name;  ///< file name (e.g. "seg-000001.rps")
  std::uint64_t size = 0;
  FooterProbe footer;
  RecordsScan rec;
  bool data_clean = false;
  std::string problem;  ///< "name: why" when !data_clean
};

/// Scan a full segment image (header + records + optional footer).
[[nodiscard]] SegmentScan scan_segment_image(std::string_view data,
                                             const std::string& name);

/// Scan a journal image: records run to EOF, and any footer bytes left
/// behind by a crash between footer append and seal rename are ordinary
/// torn tail. `prev_seq` seeds the cross-file sequence check.
[[nodiscard]] RecordsScan scan_journal_image(std::string_view data,
                                             std::uint64_t prev_seq);

/// The whole store, scanned and joined in ledger order.
struct LedgerScan {
  std::vector<SegmentScan> segments;  ///< sorted by file name
  bool any_files = false;
  bool journal_exists = false;
  std::uint64_t journal_size = 0;
  std::uint64_t journal_committed_end = 0;  ///< truncation target
  std::string journal_why;                  ///< tail cause (maybe empty)
  RecordsScan journal;
  std::uint64_t max_segment_index = 0;
  std::uint64_t final_committed_seq = 0;  ///< across segments + journal

  // Joined views over every healthy file's committed state (damaged
  // segments contribute their committed prefix, as the sequential scan
  // always had it; a segment rejected at the join for a sequence
  // violation contributes nothing).
  std::vector<StoredRun> runs;
  std::size_t committed_cells = 0;
  std::vector<std::size_t> damaged;  ///< indices into segments
  std::vector<std::string> segment_problems;  ///< "file: why"

  [[nodiscard]] std::uint64_t tail_bytes() const {
    return journal_exists && journal_size > journal_committed_end
               ? journal_size - journal_committed_end
               : 0;
  }
};

/// Scan every file in DIR. `threads` = 0 picks min(4, hardware);
/// segment scans run in parallel, the join is deterministic. Without
/// `keep_index` each segment's footer and record index (what fsck
/// cross-checks) are dropped by the thread that decoded them, so a
/// caller that only wants the runs neither frees them serially nor
/// holds their memory.
[[nodiscard]] LedgerScan scan_ledger(const std::string& dir,
                                     unsigned threads = 0,
                                     bool keep_index = true);

/// Effective worker count for a parallel scan over `files` files.
[[nodiscard]] unsigned scan_threads(unsigned requested, std::size_t files);

}  // namespace rperf::store
