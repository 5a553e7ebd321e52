// Segment footers and the MANIFEST.rps catalog: the profile store's
// query index.
//
// A sealed segment optionally carries a footer — a CRC32-framed index
// appended after the last record, just before the seal rename:
//
//   footer  := u32 kFooterMagic          (start locator)
//              u32 body_len
//              body[body_len]            (wire payload, self-contained)
//              u32 crc32                 (over magic..body)
//              u32 total_len             (= body_len + 24, whole footer)
//              u64 kFooterEndMagic       (end locator)
//
//   body    := u32 version
//              u64 records_end           (offset where records stop)
//              u32 run_count
//              run_count x { run_id, first_offset, min_seq, max_seq,
//                            cells, profiles, summaries, complete }
//              bloom { hashes, bit bytes }   (over kernel names)
//
// Two independent locators bound the footer: readers find it from EOF
// via the 16-byte trailer (total_len + end magic), and a record scan
// that runs into it stops exactly at kFooterMagic. Either locator may
// be damaged without making the *records* unreadable — the index is
// strictly fail-open (unreadable footer => full scan, a warning, and
// nothing else), while record damage stays fail-closed (CorruptError).
// The footer is built by re-scanning the just-fsynced journal with the
// same scan core recovery uses, so a valid footer is definitionally
// consistent with a full decode; fsck cross-checks that and treats a
// CRC-valid footer that *contradicts* the records as real corruption.
//
// MANIFEST.rps is a store-level catalog of every sealed segment's
// footer entries (plus file size and last committed seq for staleness
// detection), rewritten crash-atomically (tmp+fsync+rename) at each
// seal:
//
//   manifest := "RPSMANI1" payload u32 crc32(payload)
//
// The manifest is a pure cache: queries that find it stale, missing, or
// undecodable fall back to per-segment footers, then to a full scan.
// Pre-index segments (sealed before footers existed) stay readable —
// they simply scan the long way.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rperf::store {

inline constexpr std::uint32_t kFooterMagic = 0x58495052u;    // "RPIX"
inline constexpr std::uint64_t kFooterEndMagic =
    0x3158444953505231ull;                                    // "1RPSIDX1"
inline constexpr std::uint32_t kFooterVersion = 1;
/// Fixed bytes around the footer body: magic + body_len up front,
/// crc + total_len + end magic behind.
inline constexpr std::size_t kFooterHeadBytes = 8;
inline constexpr std::size_t kFooterTailBytes = 16;
/// Upper bound on a footer body; larger claimed lengths are damage.
inline constexpr std::uint32_t kMaxFooterBody = 16u << 20;

inline constexpr char kManifestMagic[8] = {'R', 'P', 'S', 'M',
                                           'A', 'N', 'I', '1'};
inline constexpr std::uint32_t kManifestVersion = 1;
inline constexpr char kManifestName[] = "MANIFEST.rps";

/// Bloom filter over kernel names: double hashing off FNV-1a-64, k
/// probes into a power-of-two bit array. No false negatives, so a
/// kernel-filtered query may skip any segment whose filter says "absent"
/// and still see every matching cell; a false positive only costs one
/// wasted segment scan.
struct BloomFilter {
  std::uint32_t hashes = 4;
  std::string bits;  ///< bit array, size is a power of two

  /// Sized for ~10 bits/element (min 64 bits), k = 4.
  [[nodiscard]] static BloomFilter sized_for(std::size_t elements);
  void add(std::string_view key);
  [[nodiscard]] bool maybe_contains(std::string_view key) const;
  [[nodiscard]] bool empty() const { return bits.empty(); }
};

/// One run's directory entry: everything a point lookup needs to seek
/// straight to the run's records and to verify it got the right bytes.
struct FooterRun {
  std::string run_id;             ///< 16-hex content address
  std::uint64_t first_offset = 0; ///< file offset of the RunHeader frame
  std::uint64_t min_seq = 0;      ///< seq of the RunHeader record
  std::uint64_t max_seq = 0;      ///< seq of the run's last committed marker
  std::uint32_t cells = 0;
  std::uint32_t profiles = 0;
  std::uint32_t summaries = 0;
  bool complete = false;
};

struct SegmentFooter {
  std::uint32_t version = kFooterVersion;
  std::uint64_t records_end = 0;  ///< records occupy [header, records_end)
  std::vector<FooterRun> runs;    ///< in append order
  BloomFilter kernels;            ///< over every committed cell's kernel

  [[nodiscard]] std::uint64_t last_seq() const {
    return runs.empty() ? 0 : runs.back().max_seq;
  }
};

[[nodiscard]] std::string encode_footer(const SegmentFooter& footer);

/// What probing a segment image for a footer found.
struct FooterProbe {
  enum class Status {
    Absent,      ///< no footer (pre-index segment): records run to EOF
    Valid,       ///< decoded and CRC-verified
    Unreadable,  ///< footer bytes present but damaged — fail open
  };
  Status status = Status::Absent;
  std::size_t records_end = 0;  ///< where the records region stops
  std::string why;              ///< Unreadable: what was wrong
  SegmentFooter footer;         ///< Valid only
};

/// Locate and decode the footer of a full segment image via the EOF
/// trailer. Never throws: any damage downgrades to Unreadable (or
/// Absent when there is no sign of a footer at all). `records_end`
/// is always set so the caller knows where record scanning must stop.
[[nodiscard]] FooterProbe probe_footer(std::string_view data);

/// Classify a record-scan stop position `pos` against a possible footer
/// start when the EOF trailer was unusable: distinguishes a truncated
/// footer (crash between footer append and seal rename — fail open)
/// from trailing garbage behind a complete footer (real damage).
/// Returns Absent when `pos` does not look like a footer at all.
[[nodiscard]] FooterProbe classify_footer_stop(std::string_view data,
                                               std::size_t pos);

struct ManifestSegment {
  std::string name;               ///< e.g. "seg-000001.rps"
  std::uint64_t file_size = 0;    ///< staleness check against the dir
  std::uint64_t last_seq = 0;     ///< last committed seq in the segment
  std::vector<FooterRun> runs;
  BloomFilter kernels;
};

struct Manifest {
  std::uint32_t version = kManifestVersion;
  std::vector<ManifestSegment> segments;  ///< ledger (name) order
};

[[nodiscard]] std::string encode_manifest(const Manifest& manifest);
/// Decode a manifest image; nullopt (with `why`) on any damage.
[[nodiscard]] std::optional<Manifest> decode_manifest(std::string_view data,
                                                      std::string* why);
/// Load DIR/MANIFEST.rps; nullopt (with `why`) when missing/undecodable.
[[nodiscard]] std::optional<Manifest> load_manifest(const std::string& dir,
                                                    std::string* why);
/// Crash-atomically replace DIR/MANIFEST.rps. Throws IoError.
void save_manifest(const std::string& dir, const Manifest& manifest);

}  // namespace rperf::store
