#include "instrument/wire_codec.hpp"

namespace rperf::cali {

namespace {

void node_to_wire(const ProfileNode& n, wire::Writer& w) {
  w.put_str(n.name);
  w.put_f64(n.time_sec);
  w.put_u64(n.visit_count);
  w.put_u32(static_cast<std::uint32_t>(n.metrics.size()));
  for (const auto& [key, value] : n.metrics) {
    w.put_str(key);
    w.put_f64(value);
  }
  w.put_u32(static_cast<std::uint32_t>(n.children.size()));
  for (const auto& child : n.children) node_to_wire(child, w);
}

ProfileNode node_from_wire(wire::Reader& r, int depth) {
  if (depth > 256) throw wire::Error("wire: profile nesting too deep");
  ProfileNode n;
  n.name = r.get_str();
  n.time_sec = r.get_f64();
  n.visit_count = r.get_u64();
  const std::uint32_t nmetrics = r.get_u32();
  r.check_count(nmetrics, 12);
  for (std::uint32_t i = 0; i < nmetrics; ++i) {
    const std::string key = r.get_str();
    n.metrics[key] = r.get_f64();
  }
  const std::uint32_t nchildren = r.get_u32();
  r.check_count(nchildren, 24);
  n.children.reserve(nchildren);
  for (std::uint32_t i = 0; i < nchildren; ++i) {
    n.children.push_back(node_from_wire(r, depth + 1));
  }
  return n;
}

}  // namespace

void profile_to_wire(const Profile& profile, wire::Writer& w) {
  w.put_u32(static_cast<std::uint32_t>(profile.metadata.size()));
  for (const auto& [key, value] : profile.metadata) {
    w.put_str(key);
    w.put_bytes(value);
  }
  w.put_u32(static_cast<std::uint32_t>(profile.roots.size()));
  for (const auto& root : profile.roots) node_to_wire(root, w);
}

Profile profile_from_wire(wire::Reader& r) {
  Profile p;
  const std::uint32_t nmeta = r.get_u32();
  r.check_count(nmeta, 8);
  for (std::uint32_t i = 0; i < nmeta; ++i) {
    const std::string key = r.get_str();
    p.metadata[key] = r.get_bytes();
  }
  const std::uint32_t nroots = r.get_u32();
  r.check_count(nroots, 24);
  p.roots.reserve(nroots);
  for (std::uint32_t i = 0; i < nroots; ++i) {
    p.roots.push_back(node_from_wire(r, 0));
  }
  return p;
}

void trace_to_wire(const TraceData& trace, wire::Writer& w) {
  w.put_i64(trace.pid);
  w.put_bytes(trace.process_name);
  w.put_f64(trace.clock_offset_sec);
  w.put_u32(static_cast<std::uint32_t>(trace.names.size()));
  for (const auto& name : trace.names) w.put_bytes(name);
  w.put_u64(trace.records.size());
  for (const TraceRecord& rec : trace.records) {
    w.put_u32(rec.name);
    w.put_u32(rec.tid);
    w.put_u8(static_cast<std::uint8_t>(rec.kind));
    w.put_i64(rec.depth);
    w.put_f64(rec.t0);
    w.put_f64(rec.t1);
    w.put_f64(rec.value);
  }
  w.put_u32(static_cast<std::uint32_t>(trace.region_stats.size()));
  for (const auto& [region, st] : trace.region_stats) {
    w.put_bytes(region);
    w.put_u64(st.instances);
    w.put_f64(st.sum_max_sec);
    w.put_f64(st.sum_mean_sec);
    w.put_i64(st.max_threads);
  }
  w.put_u64(trace.dropped);
  w.put_f64(trace.overhead_sec);
}

TraceData trace_from_wire(wire::Reader& r) {
  TraceData t;
  t.pid = static_cast<int>(r.get_i64());
  t.process_name = r.get_bytes();
  t.clock_offset_sec = r.get_f64();
  const std::uint32_t nnames = r.get_u32();
  r.check_count(nnames, 4);
  t.names.reserve(nnames);
  for (std::uint32_t i = 0; i < nnames; ++i) {
    t.names.push_back(r.get_bytes());
  }
  const std::uint64_t nrecords = r.get_u64();
  r.check_count(nrecords, 41);
  t.records.reserve(nrecords);
  for (std::uint64_t i = 0; i < nrecords; ++i) {
    TraceRecord rec;
    rec.name = r.get_u32();
    rec.tid = r.get_u32();
    rec.kind = static_cast<TraceRecord::Kind>(r.get_u8());
    rec.depth = static_cast<std::int32_t>(r.get_i64());
    rec.t0 = r.get_f64();
    rec.t1 = r.get_f64();
    rec.value = r.get_f64();
    t.records.push_back(rec);
  }
  const std::uint32_t nstats = r.get_u32();
  r.check_count(nstats, 32);
  for (std::uint32_t i = 0; i < nstats; ++i) {
    const std::string region = r.get_bytes();
    RegionThreadStats st;
    st.instances = r.get_u64();
    st.sum_max_sec = r.get_f64();
    st.sum_mean_sec = r.get_f64();
    st.max_threads = static_cast<int>(r.get_i64());
    t.region_stats[region] = st;
  }
  t.dropped = r.get_u64();
  t.overhead_sec = r.get_f64();
  return t;
}

}  // namespace rperf::cali
