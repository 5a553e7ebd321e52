// Tests for the store's query index and planner: the shared slice-by-8
// CRC agreeing with the byte-at-a-time reference, seal-time footers and
// the MANIFEST.rps catalog, the StoreQuery planner (manifest -> footer
// -> full scan), mmap'd point lookups returning bit-identical runs,
// every index fail-open path (pre-index segments, truncated footer,
// corrupt footer, stale/unreadable manifest, the idxcorrupt fault
// kind), the fail-closed path (a CRC-valid footer contradicting the
// records is corruption; --repair strips it), ambiguous --diff prefix
// resolution, bloom-filter pruning with no false negatives, and
// parallel cold scans being identical to serial ones (including the
// buffered whole-file reads they use and the footer-sized cell vectors
// a lying footer cannot inflate).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "store/index.hpp"
#include "store/io.hpp"
#include "store/mapped.hpp"
#include "store/query.hpp"
#include "store/scan.hpp"
#include "store/store.hpp"
#include "util/crc32.hpp"

namespace {

using namespace rperf;
namespace fs = std::filesystem;

constexpr std::size_t kChecksumSigBytes =
    sizeof(long double) >= 10 ? 10 : sizeof(long double);

bool checksum_bits_equal(long double a, long double b) {
  return std::memcmp(&a, &b, kChecksumSigBytes) == 0;
}

void expect_runs_equal(const store::StoredRun& a, const store::StoredRun& b,
                       const std::string& where) {
  EXPECT_EQ(a.run_id, b.run_id) << where;
  EXPECT_EQ(a.config, b.config) << where;
  EXPECT_EQ(a.complete, b.complete) << where;
  EXPECT_EQ(a.trace_summary, b.trace_summary) << where;
  ASSERT_EQ(a.cells.size(), b.cells.size()) << where;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const store::CellRecord& x = a.cells[i];
    const store::CellRecord& y = b.cells[i];
    EXPECT_EQ(x.kernel, y.kernel) << where;
    EXPECT_EQ(x.variant, y.variant) << where;
    EXPECT_EQ(x.status, y.status) << where;
    EXPECT_EQ(x.time_per_rep_sec, y.time_per_rep_sec) << where;
    EXPECT_TRUE(checksum_bits_equal(x.checksum, y.checksum)) << where;
  }
  ASSERT_EQ(a.profiles.size(), b.profiles.size()) << where;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

class StoreQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faults::injector().reset();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = (fs::temp_directory_path() /
             (std::string("rperf_query_") + info->name()))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    faults::injector().reset();
    fs::remove_all(base_);
  }

  /// One complete run (own sealed segment) holding one committed cell
  /// per kernel name. Returns the run's content address.
  std::string write_run(const std::string& tag,
                        const std::vector<std::string>& kernels,
                        bool write_index = true) {
    store::WriterOptions opt;
    opt.write_index = write_index;
    store::StoreWriter w(base_, opt);
    const std::string id = w.begin_run(
        {{"suite", "query-test"}, {"tag", tag}, {"size_factor", "0.01"}});
    std::size_t i = 0;
    for (const auto& kernel : kernels) {
      store::CellRecord c;
      c.kernel = kernel;
      c.variant = (i % 2) ? "RAJA_OpenMP" : "Base_Seq";
      c.tuning = "default";
      c.status = "Passed";
      c.time_per_rep_sec = 1e-6 * static_cast<double>(++i);
      c.checksum = (1.0L / 3.0L) * static_cast<long double>(i);
      c.problem_size = 1000;
      c.reps = 10;
      w.add_cell(c);
      w.commit();
    }
    w.add_trace_summary({{"wall_sec", 0.25}, {"cells", double(i)}});
    w.finish_run();
    return id;
  }

  [[nodiscard]] std::string latest_segment() const {
    std::string latest;
    for (const auto& e : fs::directory_iterator(base_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("seg-", 0) == 0 && name > latest) latest = name;
    }
    return latest;
  }

  std::string base_;
};

// ---------------------------------------------------------------------------
// Shared CRC32 (satellite: one slice-by-8 implementation for rings and
// store framing, parity-checked against the byte-at-a-time reference)

TEST_F(StoreQueryTest, SliceBy8Crc32MatchesBytewiseReference) {
  std::mt19937_64 rng(7);
  for (std::size_t len : {std::size_t(0), std::size_t(1), std::size_t(7),
                          std::size_t(8), std::size_t(63), std::size_t(1024),
                          std::size_t(65537)}) {
    std::string data(len, '\0');
    for (auto& ch : data) ch = static_cast<char>(rng());
    EXPECT_EQ(util::crc32(data.data(), data.size()),
              util::crc32_bytewise(data.data(), data.size()))
        << "len=" << len;
  }
}

// ---------------------------------------------------------------------------
// Seal-time footers and the manifest

TEST_F(StoreQueryTest, SealAppendsValidFooterWithRunDirectoryAndBloom) {
  const std::string id = write_run("a", {"Stream_TRIAD", "Basic_DAXPY"});
  const std::string seg = latest_segment();
  ASSERT_FALSE(seg.empty());
  const std::string data = slurp(base_ + "/" + seg);
  const store::FooterProbe probe = store::probe_footer(data);
  ASSERT_EQ(probe.status, store::FooterProbe::Status::Valid) << probe.why;
  EXPECT_LT(probe.records_end, data.size());
  ASSERT_EQ(probe.footer.runs.size(), 1u);
  const store::FooterRun& entry = probe.footer.runs[0];
  EXPECT_EQ(entry.run_id, id);
  EXPECT_EQ(entry.cells, 2u);
  EXPECT_EQ(entry.summaries, 1u);
  EXPECT_TRUE(entry.complete);
  EXPECT_GE(entry.first_offset, store::kHeaderBytes);
  EXPECT_TRUE(probe.footer.kernels.maybe_contains("Stream_TRIAD"));
  EXPECT_TRUE(probe.footer.kernels.maybe_contains("Basic_DAXPY"));
}

TEST_F(StoreQueryTest, ManifestCataloguesEverySealInLedgerOrder) {
  const std::string a = write_run("a", {"Stream_TRIAD"});
  const std::string b = write_run("b", {"Basic_DAXPY"});
  std::string why;
  const auto manifest = store::load_manifest(base_, &why);
  ASSERT_TRUE(manifest.has_value()) << why;
  ASSERT_EQ(manifest->segments.size(), 2u);
  EXPECT_LT(manifest->segments[0].name, manifest->segments[1].name);
  ASSERT_EQ(manifest->segments[0].runs.size(), 1u);
  EXPECT_EQ(manifest->segments[0].runs[0].run_id, a);
  EXPECT_EQ(manifest->segments[1].runs[0].run_id, b);
  for (const auto& seg : manifest->segments) {
    EXPECT_EQ(seg.file_size, fs::file_size(base_ + "/" + seg.name));
    EXPECT_EQ(seg.last_seq, seg.runs[0].max_seq);
  }
}

TEST_F(StoreQueryTest, SealInfoReportsFooterAndManifestPublication) {
  store::StoreWriter w(base_);
  EXPECT_TRUE(w.last_seal().segment.empty());
  w.begin_run({{"tag", "s"}});
  store::CellRecord c;
  c.kernel = "K";
  c.variant = "Base_Seq";
  c.status = "Passed";
  w.add_cell(c);
  w.commit();
  w.finish_run();
  const store::SealInfo& seal = w.last_seal();
  EXPECT_EQ(seal.segment, "seg-000000.rps");
  EXPECT_TRUE(seal.footer_ok);
  EXPECT_TRUE(seal.manifest_ok);
  EXPECT_EQ(seal.runs_indexed, 1u);
  EXPECT_EQ(seal.manifest_runs, 1u);
  EXPECT_GT(seal.footer_bytes, 0u);
  EXPECT_TRUE(seal.index_error.empty());
}

// ---------------------------------------------------------------------------
// The planner's happy paths

TEST_F(StoreQueryTest, IndexedCatalogListsRunsWithoutDecodingSegments) {
  const std::string a = write_run("a", {"Stream_TRIAD"});
  const std::string b = write_run("b", {"Basic_DAXPY", "Stream_ADD"});
  store::StoreQuery q(base_);
  EXPECT_EQ(q.segment_count(), 2u);
  EXPECT_EQ(q.indexed_segments(), 2u);
  EXPECT_TRUE(q.warnings().empty());
  ASSERT_EQ(q.catalog().size(), 2u);
  EXPECT_EQ(q.catalog()[0].meta.run_id, a);
  EXPECT_EQ(q.catalog()[1].meta.run_id, b);
  EXPECT_EQ(q.catalog()[1].meta.cells, 2u);
  EXPECT_EQ(q.catalog()[0].decoded, -1);  // index-only: never decoded
}

TEST_F(StoreQueryTest, PointLookupIsBitIdenticalToFullScan) {
  std::vector<std::string> ids;
  ids.push_back(write_run("a", {"Stream_TRIAD", "Basic_DAXPY"}));
  ids.push_back(write_run("b", {"Stream_ADD"}));
  ids.push_back(write_run("c", {"Stream_COPY", "Basic_IF_QUAD"}));

  store::StoreQuery indexed(base_);
  store::QueryOptions no_index;
  no_index.use_index = false;
  store::StoreQuery scanned(base_, no_index);
  EXPECT_EQ(scanned.indexed_segments(), 0u);
  for (const auto& id : ids) {
    const auto via_index = indexed.run(id.substr(0, 8));
    const auto via_scan = scanned.run(id.substr(0, 8));
    ASSERT_TRUE(via_index.has_value());
    ASSERT_TRUE(via_scan.has_value());
    expect_runs_equal(*via_index, *via_scan, "run " + id);
  }
  EXPECT_TRUE(indexed.warnings().empty());
}

TEST_F(StoreQueryTest, MappedSegmentDecodesExactlyTheRequestedRun) {
  write_run("a", {"Stream_TRIAD", "Basic_DAXPY"});
  const std::string seg = latest_segment();
  store::MappedSegment mapped(base_ + "/" + seg, seg);
  ASSERT_EQ(mapped.footer().status, store::FooterProbe::Status::Valid);
  const store::FooterRun& entry = mapped.footer().footer.runs[0];
  std::string why;
  const auto run = mapped.read_run(entry, &why);
  ASSERT_TRUE(run.has_value()) << why;
  const store::SegmentScan full = mapped.scan_all();
  ASSERT_EQ(full.rec.runs.size(), 1u);
  expect_runs_equal(*run, full.rec.runs[0], "point lookup vs full scan");

  // A tampered directory entry must fail verification, not mis-decode.
  store::FooterRun lying = entry;
  lying.cells += 1;
  EXPECT_FALSE(mapped.read_run(lying, &why).has_value());
  EXPECT_FALSE(why.empty());
  store::FooterRun shifted = entry;
  shifted.min_seq += 1;
  EXPECT_FALSE(mapped.read_run(shifted, &why).has_value());
}

TEST_F(StoreQueryTest, ResolveAnswersBothDiffSidesFromOneCatalogPass) {
  const std::string a = write_run("a", {"Stream_TRIAD"});
  const std::string b = write_run("b", {"Stream_TRIAD"});
  store::StoreQuery q(base_);
  const auto runs = q.resolve({a, b, "feedfacedeadbeef"});
  ASSERT_EQ(runs.size(), 3u);
  ASSERT_TRUE(runs[0].has_value());
  ASSERT_TRUE(runs[1].has_value());
  EXPECT_EQ(runs[0]->run_id, a);
  EXPECT_EQ(runs[1]->run_id, b);
  EXPECT_FALSE(runs[2].has_value());  // clean miss, not an error
}

TEST_F(StoreQueryTest, AmbiguousDiffPrefixThrowsWithTheCandidateList) {
  // Content addresses are hex: by pigeonhole, 17 distinct runs force
  // two ids to share a first character.
  std::map<char, std::string> by_first;
  std::string prefix;
  std::vector<std::string> expect_ids;
  for (int i = 0; i < 17; ++i) {
    const std::string id = write_run("tag" + std::to_string(i), {"K_A"});
    const auto it = by_first.find(id[0]);
    if (it != by_first.end() && it->second != id) {
      prefix = id.substr(0, 1);
      break;
    }
    by_first[id[0]] = id;
  }
  ASSERT_FALSE(prefix.empty());
  store::StoreQuery q(base_);
  try {
    (void)q.resolve({prefix});
    FAIL() << "ambiguous prefix resolved silently";
  } catch (const store::AmbiguousRunPrefix& e) {
    EXPECT_GE(e.matches().size(), 2u);
    EXPECT_NE(std::string(e.what()).find(prefix), std::string::npos);
  }
  // run() keeps latest-match semantics for the same prefix.
  EXPECT_TRUE(q.run(prefix).has_value());
}

// ---------------------------------------------------------------------------
// Index fail-open paths

TEST_F(StoreQueryTest, PreIndexSegmentsStayFullyReadable) {
  const std::string a = write_run("a", {"Stream_TRIAD"}, false);
  const std::string b = write_run("b", {"Basic_DAXPY"}, false);
  const std::string seg = latest_segment();
  const store::FooterProbe probe = store::probe_footer(slurp(base_ + "/" + seg));
  EXPECT_EQ(probe.status, store::FooterProbe::Status::Absent);
  EXPECT_FALSE(fs::exists(base_ + "/" + store::kManifestName));

  store::StoreQuery q(base_);
  EXPECT_EQ(q.indexed_segments(), 0u);
  ASSERT_EQ(q.catalog().size(), 2u);
  const auto run = q.run(b.substr(0, 6));
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->run_id, b);
  // A pre-index store is clean, with a note naming the unindexed state.
  const store::FsckReport report = store::fsck(base_, false);
  EXPECT_EQ(report.status, store::FsckStatus::Clean);
}

TEST_F(StoreQueryTest, MixedPreIndexAndIndexedSegmentsCompose) {
  const std::string old = write_run("old", {"Stream_TRIAD"}, false);
  const std::string fresh = write_run("fresh", {"Basic_DAXPY"}, true);
  store::StoreQuery q(base_);
  EXPECT_EQ(q.segment_count(), 2u);
  EXPECT_EQ(q.indexed_segments(), 1u);
  ASSERT_TRUE(q.run(old.substr(0, 8)).has_value());
  ASSERT_TRUE(q.run(fresh.substr(0, 8)).has_value());
  ASSERT_EQ(q.all_runs().size(), 2u);
}

TEST_F(StoreQueryTest, TruncatedFooterFailsOpenToFullScan) {
  const std::string id = write_run("a", {"Stream_TRIAD"});
  const std::string seg = latest_segment();
  const std::string path = base_ + "/" + seg;
  std::string data = slurp(path);
  const store::FooterProbe probe = store::probe_footer(data);
  ASSERT_EQ(probe.status, store::FooterProbe::Status::Valid);
  // Cut mid-footer: the records survive whole, the index does not.
  data.resize(probe.records_end + store::kFooterHeadBytes + 3);
  spit(path, data);

  store::StoreQuery q(base_);
  EXPECT_FALSE(q.warnings().empty());
  const auto run = q.run(id.substr(0, 8));
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->run_id, id);
  EXPECT_EQ(run->cells.size(), 1u);

  const store::FsckReport report = store::fsck(base_, false);
  EXPECT_EQ(report.status, store::FsckStatus::Clean);
}

TEST_F(StoreQueryTest, CorruptFooterByteFailsOpenToFullScan) {
  const std::string id = write_run("a", {"Stream_TRIAD"});
  const std::string seg = latest_segment();
  const std::string path = base_ + "/" + seg;
  std::string data = slurp(path);
  const store::FooterProbe probe = store::probe_footer(data);
  ASSERT_EQ(probe.status, store::FooterProbe::Status::Valid);
  data[probe.records_end + store::kFooterHeadBytes] ^= 0x40;
  spit(path, data);
  // Same-size damage keeps the manifest "fresh", so drop it to make the
  // catalog probe the footer itself.
  fs::remove(base_ + "/" + store::kManifestName);

  store::StoreQuery q(base_);
  ASSERT_FALSE(q.warnings().empty());
  EXPECT_NE(q.warnings()[0].find("falling back to full scan"),
            std::string::npos);
  EXPECT_EQ(q.indexed_segments(), 0u);
  const auto run = q.run(id.substr(0, 8));
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->run_id, id);

  const store::FsckReport report = store::fsck(base_, false);
  EXPECT_EQ(report.status, store::FsckStatus::Clean);
}

TEST_F(StoreQueryTest, StaleManifestFallsBackToTheSegmentFooter) {
  const std::string id = write_run("a", {"Stream_TRIAD"});
  std::string why;
  auto manifest = store::load_manifest(base_, &why);
  ASSERT_TRUE(manifest.has_value()) << why;
  manifest->segments[0].file_size += 1;  // no longer matches the dir
  store::save_manifest(base_, *manifest);

  store::StoreQuery q(base_);
  ASSERT_FALSE(q.warnings().empty());
  EXPECT_NE(q.warnings()[0].find("stale manifest"), std::string::npos);
  EXPECT_EQ(q.indexed_segments(), 1u);  // footer still serves the catalog
  EXPECT_TRUE(q.run(id.substr(0, 8)).has_value());
}

TEST_F(StoreQueryTest, UnreadableManifestFallsBackToFooters) {
  const std::string id = write_run("a", {"Stream_TRIAD"});
  std::string garbage = slurp(base_ + "/" + store::kManifestName);
  garbage[garbage.size() / 2] ^= 0x01;
  spit(base_ + "/" + store::kManifestName, garbage);

  store::StoreQuery q(base_);
  ASSERT_FALSE(q.warnings().empty());
  EXPECT_NE(q.warnings()[0].find("manifest"), std::string::npos);
  EXPECT_EQ(q.indexed_segments(), 1u);
  EXPECT_TRUE(q.run(id.substr(0, 8)).has_value());
}

TEST_F(StoreQueryTest, IdxCorruptFaultDegradesIndexButCommitsTheRun) {
  faults::injector().configure("idxcorrupt@index:1");
  const std::string id = [&] {
    store::StoreWriter w(base_);
    const std::string rid = w.begin_run({{"tag", "faulted"}});
    store::CellRecord c;
    c.kernel = "Stream_TRIAD";
    c.variant = "Base_Seq";
    c.status = "Passed";
    w.add_cell(c);
    w.commit();
    w.finish_run();
    EXPECT_FALSE(w.last_seal().index_error.empty());
    EXPECT_FALSE(w.last_seal().manifest_ok);
    return rid;
  }();
  faults::injector().reset();

  store::StoreQuery q(base_);
  ASSERT_FALSE(q.warnings().empty());
  EXPECT_NE(q.warnings().back().find("falling back to full scan"),
            std::string::npos);
  const auto run = q.run(id.substr(0, 8));
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->cells.size(), 1u);
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Clean);
}

// ---------------------------------------------------------------------------
// Fail-closed: a valid footer that lies about the records

TEST_F(StoreQueryTest, LyingFooterIsCorruptionAndRepairStripsIt) {
  const std::string id = write_run("a", {"Stream_TRIAD"});
  const std::string seg = latest_segment();
  const std::string path = base_ + "/" + seg;
  std::string data = slurp(path);
  store::FooterProbe probe = store::probe_footer(data);
  ASSERT_EQ(probe.status, store::FooterProbe::Status::Valid);
  // Re-encode a CRC-valid footer whose directory contradicts the
  // records: this is indistinguishable from silent index corruption and
  // must surface as real damage, not as a wrong answer.
  probe.footer.runs[0].cells += 2;
  data.resize(probe.records_end);
  data += store::encode_footer(probe.footer);
  spit(path, data);

  store::FsckReport report = store::fsck(base_, false);
  EXPECT_EQ(report.status, store::FsckStatus::Corrupt);
  bool noted = false;
  for (const auto& note : report.notes) {
    noted = noted || note.find("footer contradicts records") !=
                         std::string::npos;
  }
  EXPECT_TRUE(noted);

  // --repair strips the lying footer; the records themselves were fine,
  // so the segment reverts to a readable pre-index segment.
  report = store::fsck(base_, true);
  EXPECT_TRUE(report.repaired);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Clean);
  EXPECT_EQ(store::probe_footer(slurp(path)).status,
            store::FooterProbe::Status::Absent);
  store::StoreQuery q(base_);
  const auto run = q.run(id.substr(0, 8));
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->cells.size(), 1u);
}

// ---------------------------------------------------------------------------
// Bloom pruning

TEST_F(StoreQueryTest, KernelQueriesNeverLoseRunsAndUsuallyPrune) {
  const std::string a = write_run("a", {"Alpha_One", "Alpha_Two"});
  const std::string b = write_run("b", {"Beta_One"});
  store::StoreQuery q(base_);
  const auto hits = q.runs_with_kernel("Alpha_One");
  bool found = false;
  for (const auto& run : hits) found = found || run.run_id == a;
  EXPECT_TRUE(found);  // no false negatives, ever
  EXPECT_LE(q.last_bloom_pruned(), 1u);

  const auto none = q.runs_with_kernel("Gamma_NotThere");
  for (const auto& run : none) {
    for (const auto& c : run.cells) EXPECT_NE(c.kernel, "Gamma_NotThere");
  }
}

TEST_F(StoreQueryTest, BloomFalsePositiveOnlyCostsADecode) {
  store::BloomFilter bloom = store::BloomFilter::sized_for(1);
  bloom.add("Stream_TRIAD");
  EXPECT_TRUE(bloom.maybe_contains("Stream_TRIAD"));
  // Hashing is deterministic, so hunt down a concrete false positive:
  // the filter says "maybe" for a key that was never added. The query
  // layer must treat that as "decode and check", never as an answer.
  std::string fp;
  for (int i = 0; i < 1 << 20 && fp.empty(); ++i) {
    const std::string probe = "probe_" + std::to_string(i);
    if (bloom.maybe_contains(probe)) fp = probe;
  }
  ASSERT_FALSE(fp.empty()) << "no false positive in 2^20 probes";
  EXPECT_NE(fp, "Stream_TRIAD");
  // An unusable (empty) filter can only widen the answer, never exclude.
  store::BloomFilter empty;
  EXPECT_TRUE(empty.maybe_contains("anything"));
}

// ---------------------------------------------------------------------------
// Parallel cold scans

TEST_F(StoreQueryTest, ParallelScanIsIdenticalToSerial) {
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(write_run("tag" + std::to_string(i),
                            {"K_" + std::to_string(i), "Stream_TRIAD"}));
  }
  const store::StoreReader serial(base_, 1);
  const store::StoreReader parallel(base_, 4);
  ASSERT_EQ(serial.runs().size(), ids.size());
  ASSERT_EQ(parallel.runs().size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_runs_equal(serial.runs()[i], parallel.runs()[i],
                      "run " + std::to_string(i));
  }
  const store::FsckReport one = store::fsck(base_, false, 1);
  const store::FsckReport four = store::fsck(base_, false, 4);
  EXPECT_EQ(one.status, four.status);
  EXPECT_EQ(one.runs, four.runs);
  EXPECT_EQ(one.committed_cells, four.committed_cells);
}

TEST_F(StoreQueryTest, ReadFileIntoReusesOneBufferAcrossFiles) {
  const std::string big(100000, 'b');
  spit(base_ + "/big", big);
  spit(base_ + "/small", "small");
  spit(base_ + "/empty", "");
  std::string buf;
  store::read_file_into(base_ + "/big", buf);
  EXPECT_EQ(buf, big);
  store::read_file_into(base_ + "/small", buf);
  EXPECT_EQ(buf, "small");
  store::read_file_into(base_ + "/empty", buf);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(store::read_file(base_ + "/big"), big);
  EXPECT_THROW(store::read_file_into(base_ + "/missing", buf),
               store::IoError);
}

TEST_F(StoreQueryTest, InflatedFooterCellCountOnlyBoundsCapacity) {
  write_run("a", {"K_0", "K_1", "K_2"});
  std::string data = slurp(base_ + "/" + latest_segment());
  store::FooterProbe probe = store::probe_footer(data);
  ASSERT_EQ(probe.status, store::FooterProbe::Status::Valid);
  // A CRC-valid footer claiming ~10^9 cells: the scan may size the run's
  // cell vector from it, but never past what the records region could
  // hold, and the decoded run is still exactly what the records say.
  probe.footer.runs[0].cells = 1u << 30;
  data.resize(probe.records_end);
  data += store::encode_footer(probe.footer);

  const store::SegmentScan seg = store::scan_segment_image(data, "seg");
  ASSERT_TRUE(seg.data_clean) << seg.problem;
  ASSERT_EQ(seg.rec.runs.size(), 1u);
  EXPECT_EQ(seg.rec.runs[0].cells.size(), 3u);
  EXPECT_LE(seg.rec.runs[0].cells.capacity(),
            data.size() / (store::kFrameBytes + store::kMinBody));
}

}  // namespace
