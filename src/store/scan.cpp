#include "store/scan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <variant>

#include "instrument/wire_codec.hpp"
#include "sandbox/wire.hpp"
#include "store/io.hpp"
#include "util/crc32.hpp"

namespace rperf::store {

namespace fs = std::filesystem;

namespace {

std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// A decoded-but-uncommitted record, parked until a valid marker.
struct PendingOp {
  RecordType type = RecordType::RunHeader;
  std::uint64_t seq = 0;
  std::uint64_t offset = 0;  ///< frame offset in the file
  /// The payload `type` names: RunHeader, CellResult, ProfileRegion,
  /// CounterSet, TraceSummary (trace summary map), in that order.
  std::variant<StoredRun, CellRecord, StoredProfile, CounterRecord,
               std::map<std::string, double>>
      body;
};

struct ScanState {
  std::vector<StoredRun> runs;
  std::vector<RunIndexInfo> index;  ///< parallel to runs
  std::vector<PendingOp> pending;
  int open_run = -1;                ///< index into runs, -1 = none open
  std::uint64_t last_seq = 0;       ///< seq of last structurally valid record
  std::uint64_t committed_seq = 0;  ///< seq of last *applied* marker
  std::size_t committed_cells = 0;
  const std::vector<FooterRun>* footer_runs = nullptr;  ///< capacity hints
  std::size_t max_records = 0;  ///< frames the region can hold at most
};

/// Run id the next marker must name: a pending header wins over the
/// open committed run.
const std::string* current_run_id(const ScanState& st) {
  for (auto it = st.pending.rbegin(); it != st.pending.rend(); ++it) {
    if (it->type == RecordType::RunHeader) {
      return &std::get<StoredRun>(it->body).run_id;
    }
  }
  if (st.open_run >= 0) return &st.runs[st.open_run].run_id;
  return nullptr;
}

/// Decode one record body into the pending list / apply a marker.
/// Returns false (with `why`) when the record is invalid — the scan
/// stops there, fail closed.
bool consume_record(ScanState& st, RecordType type, std::string_view payload,
                    std::uint64_t seq, std::uint64_t offset,
                    const std::string& file, std::string& why) {
  try {
    switch (type) {
      case RecordType::RunHeader: {
        wire::Reader r(payload.data(), payload.size());
        PendingOp op;
        op.type = type;
        op.seq = seq;
        op.offset = offset;
        StoredRun& run = std::get<StoredRun>(op.body);
        run.run_id = r.get_bytes();
        const std::uint32_t n = r.get_u32();
        r.check_count(n, 8);
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::string key = r.get_bytes();
          run.config[key] = r.get_bytes();
        }
        if (run.run_id != run_config_id(run.config)) {
          why = "run id does not match its config hash";
          return false;
        }
        run.file = file;
        st.pending.push_back(std::move(op));
        return true;
      }
      case RecordType::CellResult:
      case RecordType::ProfileRegion:
      case RecordType::CounterSet:
      case RecordType::TraceSummary: {
        if (current_run_id(st) == nullptr) {
          why = "data record outside any run";
          return false;
        }
        PendingOp op;
        op.type = type;
        op.seq = seq;
        op.offset = offset;
        if (type == RecordType::CellResult) {
          op.body = decode_cell_payload(payload);
        } else if (type == RecordType::ProfileRegion) {
          wire::Reader r(payload.data(), payload.size());
          auto& profile = op.body.emplace<StoredProfile>();
          profile.variant = r.get_bytes();
          profile.tuning = r.get_bytes();
          profile.profile = cali::profile_from_wire(r);
        } else if (type == RecordType::CounterSet) {
          op.body = decode_counter_payload(payload);
        } else {
          wire::Reader r(payload.data(), payload.size());
          auto& summary = op.body.emplace<std::map<std::string, double>>();
          const std::uint32_t n = r.get_u32();
          r.check_count(n, 12);
          for (std::uint32_t i = 0; i < n; ++i) {
            const std::string key = r.get_bytes();
            summary[key] = r.get_f64();
          }
        }
        st.pending.push_back(std::move(op));
        return true;
      }
      case RecordType::CommitMarker: {
        wire::Reader r(payload.data(), payload.size());
        const std::uint64_t covers = r.get_u64();
        const bool final_marker = r.get_u8() != 0;
        const std::string_view marker_run = r.get_bytes_view();
        // A marker commits nothing unless it provably belongs exactly
        // here: it must cover its immediate predecessor and name the
        // run that is actually open. A stale or relocated marker (torn
        // write, replayed bytes) fails one of these and the scan stops
        // — fail closed, the tail is quarantined, not trusted.
        if (covers + 1 != seq) {
          why = "commit marker covers_seq does not match its predecessor";
          return false;
        }
        const std::string* open_id = current_run_id(st);
        if (open_id == nullptr || *open_id != marker_run) {
          why = "commit marker names a run that is not open";
          return false;
        }
        for (auto& op : st.pending) {
          switch (op.type) {
            case RecordType::RunHeader: {
              StoredRun& run = std::get<StoredRun>(op.body);
              RunIndexInfo info;
              info.entry.run_id = run.run_id;
              info.entry.first_offset = op.offset;
              info.entry.min_seq = op.seq;
              const std::size_t k = st.runs.size();
              if (st.footer_runs != nullptr && k < st.footer_runs->size() &&
                  (*st.footer_runs)[k].first_offset == op.offset) {
                const std::size_t cells = std::min<std::size_t>(
                    (*st.footer_runs)[k].cells, st.max_records);
                run.cells.reserve(cells);
                info.kernels.reserve(cells);
              }
              st.runs.push_back(std::move(run));
              st.index.push_back(std::move(info));
              st.open_run = static_cast<int>(st.runs.size()) - 1;
              break;
            }
            case RecordType::CellResult: {
              CellRecord& cell = std::get<CellRecord>(op.body);
              st.index[st.open_run].kernels.push_back(cell.kernel);
              ++st.index[st.open_run].entry.cells;
              st.runs[st.open_run].cells.push_back(std::move(cell));
              ++st.committed_cells;
              break;
            }
            case RecordType::ProfileRegion:
              ++st.index[st.open_run].entry.profiles;
              st.runs[st.open_run].profiles.push_back(
                  std::move(std::get<StoredProfile>(op.body)));
              break;
            case RecordType::CounterSet:
              // Deliberately not indexed: the footer entry layout predates
              // counter records and stays fixed; queries reach counters
              // through their run.
              st.runs[st.open_run].counters.push_back(
                  std::move(std::get<CounterRecord>(op.body)));
              break;
            case RecordType::TraceSummary:
              ++st.index[st.open_run].entry.summaries;
              st.runs[st.open_run].trace_summary =
                  std::move(std::get<std::map<std::string, double>>(op.body));
              break;
            case RecordType::CommitMarker:
              break;  // never pending
          }
        }
        st.pending.clear();
        if (st.open_run >= 0) {
          st.index[st.open_run].entry.max_seq = seq;
          if (final_marker) {
            st.runs[st.open_run].complete = true;
            st.index[st.open_run].entry.complete = true;
            st.open_run = -1;
          }
        }
        st.committed_seq = seq;
        return true;
      }
    }
  } catch (const std::exception& e) {
    why = std::string("payload decode failed: ") + e.what();
    return false;
  }
  why = "unknown record type " +
        std::to_string(static_cast<unsigned>(type));
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Records region scan

RecordsScan scan_records(std::string_view data, std::size_t begin,
                         std::size_t end, std::uint64_t prev_seq,
                         const std::string& file,
                         std::uint64_t stop_after_seq,
                         const std::vector<FooterRun>* footer_runs) {
  RecordsScan out;
  ScanState st;
  st.last_seq = prev_seq;
  st.footer_runs = footer_runs;
  st.max_records = end > begin ? (end - begin) / (kFrameBytes + kMinBody) : 0;
  out.committed_end = begin;
  std::size_t pos = begin;
  bool first = true;
  bool stopped_at_target = false;
  while (pos < end) {
    if (end - pos < kFrameBytes) {
      out.why = "truncated frame header";
      break;
    }
    if (load_u32(data.data() + pos) != kRecordMagic) {
      out.why = "bad record magic";
      break;
    }
    const std::uint32_t len = load_u32(data.data() + pos + 4);
    if (len < kMinBody || len > kMaxRecordBody) {
      out.why = "implausible record length";
      break;
    }
    if (end - pos - kFrameBytes < len) {
      out.why = "truncated record body";
      break;
    }
    const char* body = data.data() + pos + kFrameBytes;
    if (util::crc32(body, len) != load_u32(data.data() + pos + 8)) {
      out.why = "record crc mismatch";
      break;
    }
    const std::uint64_t seq = load_u64(body);
    // Within a file seqs step by exactly 1; across files they may only
    // jump forward (lets fsck drop a quarantined segment without
    // invalidating its successors). Duplicate or regressing seqs are
    // corruption even when the CRC checks out (replayed bytes).
    if (first ? seq <= prev_seq : seq != st.last_seq + 1) {
      out.why = "sequence violation";
      break;
    }
    const auto type = static_cast<RecordType>(
        static_cast<unsigned char>(body[8]));
    const std::string_view payload(body + kMinBody, len - kMinBody);
    std::string why;
    if (!consume_record(st, type, payload, seq, pos, file, why)) {
      out.why = why;
      break;
    }
    if (first) out.first_seq = seq;
    st.last_seq = seq;
    first = false;
    pos += kFrameBytes + len;
    if (type == RecordType::CommitMarker) {
      out.committed_end = pos;
      if (stop_after_seq != 0 && seq == stop_after_seq) {
        stopped_at_target = true;
        break;
      }
    }
  }
  out.stop_pos = pos;
  if (out.why.empty() && !stopped_at_target &&
      (out.committed_end != end || !st.pending.empty())) {
    out.why = "uncommitted trailing records";
  }
  out.clean = out.why.empty();
  out.committed_seq = st.committed_seq;
  out.committed_cells = st.committed_cells;
  out.runs = std::move(st.runs);
  out.index = std::move(st.index);
  return out;
}

// ---------------------------------------------------------------------------
// Whole-file scans

SegmentScan scan_segment_image(std::string_view data,
                               const std::string& name) {
  SegmentScan seg;
  seg.name = name;
  seg.size = data.size();
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kFileMagic, kHeaderBytes) != 0) {
    seg.problem = name + ": bad file header";
    seg.footer.records_end = data.size();
    return seg;
  }
  seg.footer = probe_footer(data);
  seg.rec = scan_records(data, kHeaderBytes, seg.footer.records_end, 0, name,
                         0,
                         seg.footer.status == FooterProbe::Status::Valid
                             ? &seg.footer.footer.runs
                             : nullptr);
  if (!seg.rec.clean && seg.footer.records_end == data.size()) {
    // The EOF trailer was unusable, so the scan ran to EOF — it may have
    // stopped at a footer whose trailer is damaged or cut short. If all
    // records before the stop are committed, the segment's *data* is
    // intact and only the index is lost (fail open).
    const FooterProbe at_stop = classify_footer_stop(data, seg.rec.stop_pos);
    if (at_stop.status == FooterProbe::Status::Unreadable &&
        seg.rec.committed_end == seg.rec.stop_pos) {
      seg.footer = at_stop;
      seg.rec.clean = true;
      seg.rec.why.clear();
    }
  }
  seg.data_clean = seg.rec.clean;
  if (!seg.data_clean) {
    seg.problem = name + ": " +
                  (seg.rec.why.empty() ? "uncommitted trailing records"
                                       : seg.rec.why);
  }
  return seg;
}

RecordsScan scan_journal_image(std::string_view data,
                               std::uint64_t prev_seq) {
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kFileMagic, kHeaderBytes) != 0) {
    RecordsScan out;
    out.why = "bad file header";
    return out;
  }
  return scan_records(data, kHeaderBytes, data.size(), prev_seq,
                      "journal.rps");
}

// ---------------------------------------------------------------------------
// Ledger scan (parallel over segments)

unsigned scan_threads(unsigned requested, std::size_t files) {
  if (files <= 1) return 1;
  unsigned t = requested;
  if (t == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = std::min(4u, hw == 0 ? 1u : hw);
  }
  return static_cast<unsigned>(
      std::min<std::size_t>(t == 0 ? 1 : t, files));
}

LedgerScan scan_ledger(const std::string& dir, unsigned threads,
                       bool keep_index) {
  LedgerScan out;
  std::vector<std::string> paths;
  if (fs::is_directory(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("seg-", 0) == 0 && name.size() > 8 &&
          name.substr(name.size() - 4) == ".rps") {
        paths.push_back(entry.path().string());
        const std::uint64_t idx =
            std::strtoull(name.c_str() + 4, nullptr, 10);
        out.max_segment_index = std::max(out.max_segment_index, idx);
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  out.segments.resize(paths.size());

  // Every byte of every segment is decoded, so each worker reads whole
  // files into one reused buffer; mapping them instead would serialise
  // the workers on munmap's cross-core TLB shootdowns.
  auto scan_one = [&](std::size_t i, std::string& image) {
    const std::string name = fs::path(paths[i]).filename().string();
    try {
      read_file_into(paths[i], image);
      out.segments[i] = scan_segment_image(image, name);
      if (!keep_index) {
        out.segments[i].rec.index = {};
        out.segments[i].footer.footer = {};
      }
    } catch (const std::exception& e) {
      out.segments[i].name = name;
      out.segments[i].problem = name + ": " + e.what();
      out.segments[i].data_clean = false;
    }
  };
  // The calling thread is one of the `workers` scanners: it starts on
  // the first segment at once instead of idling while helpers spawn.
  const unsigned workers = scan_threads(threads, paths.size());
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    std::string image;
    for (std::size_t i = next.fetch_add(1); i < paths.size();
         i = next.fetch_add(1)) {
      scan_one(i, image);
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) helpers.emplace_back(drain);
  drain();
  for (auto& th : helpers) th.join();

  // Deterministic join in ledger order: re-apply the cross-file sequence
  // rule the sequential scan enforced at each file boundary. A segment
  // whose first seq does not move forward is damaged and contributes
  // nothing (its bytes replay earlier history); any other segment —
  // including a damaged one — contributes its committed prefix.
  std::size_t decoded_runs = 0;
  for (const SegmentScan& seg : out.segments) {
    decoded_runs += seg.rec.runs.size();
  }
  out.runs.reserve(decoded_runs);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < out.segments.size(); ++i) {
    SegmentScan& seg = out.segments[i];
    out.any_files = true;
    if (seg.rec.first_seq != 0 && seg.rec.first_seq <= prev) {
      seg.data_clean = false;
      seg.problem = seg.name + ": sequence violation";
      out.damaged.push_back(i);
      out.segment_problems.push_back(seg.problem);
      continue;
    }
    if (!seg.data_clean) {
      out.damaged.push_back(i);
      out.segment_problems.push_back(seg.problem);
    }
    for (auto& run : seg.rec.runs) out.runs.push_back(std::move(run));
    seg.rec.runs.clear();  // joined view owns them now (index stays)
    out.committed_cells += seg.rec.committed_cells;
    if (seg.rec.committed_seq != 0) prev = seg.rec.committed_seq;
  }

  const std::string journal = dir + "/journal.rps";
  if (fs::exists(journal)) {
    out.any_files = true;
    out.journal_exists = true;
    const std::string data = read_file(journal);
    out.journal_size = data.size();
    if (!data.empty()) {
      out.journal = scan_journal_image(data, prev);
      out.journal_committed_end = out.journal.committed_end;
      out.journal_why = out.journal.why;
      for (auto& run : out.journal.runs) out.runs.push_back(std::move(run));
      out.journal.runs.clear();
      out.committed_cells += out.journal.committed_cells;
      if (out.journal.committed_seq != 0) prev = out.journal.committed_seq;
    }
  }
  out.final_committed_seq = prev;
  return out;
}

}  // namespace rperf::store
