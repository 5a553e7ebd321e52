// Binary wire codecs for the instrument layer's transportable snapshots
// (Profile, TraceData) — the rperf::wire counterpart of profile_to_value
// / TraceData::to_value, used for every worker record the pool carries,
// so worker profiles and trace chunks merge into the supervisor without a
// JSON round-trip.
//
// Layout (all fields little-endian, strings per wire.hpp refs):
//
//   profile  := u32 nmeta { str key, bytes value }*
//               u32 nroots node*
//   node     := str name, f64 time_sec, u64 visits,
//               u32 nmetrics { str key, f64 value }*,
//               u32 nchildren node*
//
//   trace    := i64 pid, bytes process_name, f64 clock_offset_sec,
//               u32 nnames bytes*,
//               u64 nrecords { u32 name, u32 tid, u8 kind, i32 depth,
//                              f64 t0, f64 t1, f64 value }*,
//               u32 nstats { bytes region, u64 instances, f64 sum_max,
//                            f64 sum_mean, i32 max_threads }*,
//               u64 dropped, f64 overhead_sec
//
// Decoders validate every count against the bytes remaining and throw
// wire::Error on violation; callers map that to the malformed-record
// path.
#pragma once

#include "instrument/profile.hpp"
#include "instrument/trace_sink.hpp"
#include "sandbox/wire.hpp"

namespace rperf::cali {

void profile_to_wire(const Profile& profile, wire::Writer& w);
[[nodiscard]] Profile profile_from_wire(wire::Reader& r);

void trace_to_wire(const TraceData& trace, wire::Writer& w);
[[nodiscard]] TraceData trace_from_wire(wire::Reader& r);

}  // namespace rperf::cali
