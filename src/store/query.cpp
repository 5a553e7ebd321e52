#include "store/query.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "store/io.hpp"
#include "store/mapped.hpp"
#include "store/scan.hpp"

namespace rperf::store {

namespace fs = std::filesystem;

namespace {

std::string joined_problems(const std::vector<std::string>& problems) {
  std::string out;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i) out += "; ";
    out += problems[i];
  }
  return out;
}

std::string ambiguity_message(const std::string& prefix,
                              const std::vector<std::string>& matches) {
  std::string out = "store: run prefix '" + prefix + "' matches " +
                    std::to_string(matches.size()) + " runs:";
  for (const auto& id : matches) out += " " + id;
  out += " — use a longer prefix";
  return out;
}

}  // namespace

AmbiguousRunPrefix::AmbiguousRunPrefix(const std::string& prefix,
                                       std::vector<std::string> matches)
    : StoreError(ambiguity_message(prefix, matches)),
      matches_(std::move(matches)) {}

StoreQuery::StoreQuery(std::string dir, QueryOptions opt)
    : dir_(std::move(dir)), opt_(opt) {
  build_catalog();
}

void StoreQuery::build_catalog() {
  std::vector<std::string> names;
  if (fs::is_directory(dir_)) {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("seg-", 0) == 0 && name.size() > 8 &&
          name.substr(name.size() - 4) == ".rps") {
        names.push_back(name);
      }
    }
  }
  std::sort(names.begin(), names.end());
  segment_count_ = names.size();
  bool any_files = !names.empty();

  std::optional<Manifest> manifest;
  if (opt_.use_index) {
    std::string why;
    manifest = load_manifest(dir_, &why);
    if (!manifest && fs::exists(dir_ + "/" + kManifestName)) {
      warn("unreadable manifest (" + why +
           "); falling back to segment footers");
    }
  }

  // Name -> manifest entry, built once: every segment is looked up, and
  // a linear search per segment made the indexed catalog quadratic in
  // the ledger length. Each entry is consumed (moved from) at most once,
  // because directory names are unique.
  std::unordered_map<std::string_view, ManifestSegment*> by_name;
  if (manifest) {
    by_name.reserve(manifest->segments.size());
    for (auto& seg : manifest->segments) by_name.emplace(seg.name, &seg);
  }

  std::uint64_t prev_seq = 0;
  for (const auto& name : names) {
    const std::string path = dir_ + "/" + name;
    SegmentInfo info;
    info.name = name;
    info.first_entry = catalog_.size();
    bool served = false;

    // Source 1: a manifest entry that still matches the file on disk.
    const auto found = by_name.find(name);
    ManifestSegment* m = found == by_name.end() ? nullptr : found->second;
    if (m != nullptr) {
      std::error_code ec;
      const auto size = fs::file_size(path, ec);
      if (!ec && size == m->file_size) {
        for (auto& r : m->runs) catalog_.push_back({std::move(r), name, -1});
        info.indexed = true;
        info.bloom_valid = true;
        info.kernels = std::move(m->kernels);
        if (!m->runs.empty()) prev_seq = m->last_seq;
        served = true;
      } else {
        warn("stale manifest entry for " + name + "; probing its footer");
      }
    }

    // Source 2: the segment's own footer.
    if (!served && opt_.use_index) {
      try {
        MappedSegment seg(path, name);
        if (seg.footer().status == FooterProbe::Status::Valid) {
          const SegmentFooter& f = seg.footer().footer;
          for (const auto& r : f.runs) catalog_.push_back({r, name, -1});
          info.indexed = true;
          info.bloom_valid = true;
          info.kernels = f.kernels;
          if (!f.runs.empty()) prev_seq = f.last_seq();
          served = true;
        } else if (seg.footer().status == FooterProbe::Status::Unreadable) {
          warn("unreadable footer in " + name + " (" + seg.footer().why +
               "); falling back to full scan");
        }
        // Absent: a pre-index segment — full scan, no noise.
      } catch (const IoError& e) {
        warn("cannot map " + name + " (" + e.what() +
             "); falling back to full scan");
      }
    }

    // Source 3: full record decode. Index damage got us here for free,
    // but record damage stays fail-closed.
    if (!served) {
      MappedFile map(path);
      SegmentScan s = scan_segment_image(map.view(), name);
      if (s.data_clean && s.rec.first_seq != 0 &&
          s.rec.first_seq <= prev_seq) {
        s.data_clean = false;
        s.problem = name + ": sequence violation";
      }
      if (!s.data_clean) {
        throw CorruptError("store: sealed segment damage in '" + dir_ +
                           "' (" + s.problem + ")");
      }
      for (std::size_t i = 0; i < s.rec.runs.size(); ++i) {
        catalog_.push_back({s.rec.index[i].entry, name,
                            static_cast<int>(decoded_.size())});
        decoded_.push_back(std::move(s.rec.runs[i]));
      }
      if (s.rec.committed_seq != 0) prev_seq = s.rec.committed_seq;
    }

    info.entry_count = catalog_.size() - info.first_entry;
    if (info.indexed) ++indexed_segments_;
    segments_.push_back(std::move(info));
  }

  // The journal is the one mutable file: always scanned, never indexed.
  const std::string journal = dir_ + "/journal.rps";
  if (fs::exists(journal)) {
    any_files = true;
    const std::string data = read_file(journal);
    if (!data.empty()) {
      RecordsScan rec = scan_journal_image(data, prev_seq);
      tail_bytes_ = data.size() - rec.committed_end;
      for (std::size_t i = 0; i < rec.runs.size(); ++i) {
        catalog_.push_back({rec.index[i].entry, "journal.rps",
                            static_cast<int>(decoded_.size())});
        decoded_.push_back(std::move(rec.runs[i]));
      }
    }
  }
  if (!any_files) {
    throw StoreError("store: no profile store at '" + dir_ + "'");
  }
}

std::optional<StoredRun> StoreQuery::run(const std::string& prefix) {
  for (auto it = catalog_.rbegin(); it != catalog_.rend(); ++it) {
    if (!prefix.empty() && it->meta.run_id.rfind(prefix, 0) != 0) continue;
    if (it->decoded >= 0) return decoded_[it->decoded];

    // Indexed point lookup: mmap the one segment, decode the one run.
    try {
      MappedSegment seg(dir_ + "/" + it->file, it->file);
      std::string why;
      if (auto found = seg.read_run(it->meta, &why)) return found;
      warn("point lookup for run " + it->meta.run_id + " in " + it->file +
           " failed (" + why + "); falling back to full scan");
    } catch (const IoError& e) {
      warn("point lookup for run " + it->meta.run_id + " in " + it->file +
           " failed (" + e.what() + "); falling back to full scan");
    }

    // Fallback: the answer the scan reader would give (and CorruptError
    // if the records themselves turn out damaged).
    const auto& all = all_runs();
    for (auto rit = all.rbegin(); rit != all.rend(); ++rit) {
      if (prefix.empty() || rit->run_id.rfind(prefix, 0) == 0) return *rit;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

std::vector<std::optional<StoredRun>> StoreQuery::resolve(
    const std::vector<std::string>& prefixes) {
  for (const auto& prefix : prefixes) {
    std::vector<std::string> ids;
    for (const auto& entry : catalog_) {
      if (!prefix.empty() && entry.meta.run_id.rfind(prefix, 0) != 0) {
        continue;
      }
      if (std::find(ids.begin(), ids.end(), entry.meta.run_id) ==
          ids.end()) {
        ids.push_back(entry.meta.run_id);
      }
    }
    if (ids.size() > 1) throw AmbiguousRunPrefix(prefix, std::move(ids));
  }
  std::vector<std::optional<StoredRun>> out;
  out.reserve(prefixes.size());
  for (const auto& prefix : prefixes) out.push_back(run(prefix));
  return out;
}

const std::vector<StoredRun>& StoreQuery::all_runs() {
  if (all_) return *all_;
  bool fully_decoded = true;
  for (const auto& entry : catalog_) {
    if (entry.decoded < 0) {
      fully_decoded = false;
      break;
    }
  }
  if (fully_decoded) {
    // decoded_ was filled in ledger order during cataloguing.
    all_ = decoded_;
    return *all_;
  }
  LedgerScan scan = scan_ledger(dir_, opt_.threads, /*keep_index=*/false);
  if (!scan.damaged.empty()) {
    throw CorruptError("store: sealed segment damage in '" + dir_ + "' (" +
                       joined_problems(scan.segment_problems) + ")");
  }
  all_ = std::move(scan.runs);
  return *all_;
}

std::vector<StoredRun> StoreQuery::decode_segment(const SegmentInfo& seg) {
  MappedFile map(dir_ + "/" + seg.name);
  SegmentScan s = scan_segment_image(map.view(), seg.name);
  if (!s.data_clean) {
    throw CorruptError("store: sealed segment damage in '" + dir_ + "' (" +
                       s.problem + ")");
  }
  return std::move(s.rec.runs);
}

std::vector<StoredRun> StoreQuery::runs_with_kernel(
    const std::string& kernel) {
  last_bloom_pruned_ = 0;
  std::vector<StoredRun> out;
  for (const auto& seg : segments_) {
    if (seg.indexed) {
      if (seg.bloom_valid && !seg.kernels.empty() &&
          !seg.kernels.maybe_contains(kernel)) {
        ++last_bloom_pruned_;
        continue;
      }
      for (auto& run : decode_segment(seg)) out.push_back(std::move(run));
    } else {
      for (std::size_t i = 0; i < seg.entry_count; ++i) {
        const CatalogEntry& entry = catalog_[seg.first_entry + i];
        out.push_back(decoded_[entry.decoded]);
      }
    }
  }
  for (const auto& entry : catalog_) {
    if (entry.file == "journal.rps") out.push_back(decoded_[entry.decoded]);
  }
  return out;
}

}  // namespace rperf::store
