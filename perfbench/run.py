#!/usr/bin/env python3
"""The repo benchmark: one command, two workloads, every metric by name.

    python3 perfbench/run.py --workload NAME[,NAME...] --seed N \\
        --seconds S --trace 0|1 [--out PATH] [--tiny]

Builds perfbench_driver (perfbench/CMakeLists.txt) into .bench_build on
first use, then runs the named workload as a fixed number of trials set by
S, one perfbench_driver process per trial, and checks every output:

  inproc_suite  all kernels x 6 variants in-process, default sizes
  pooled_store  Stream+Basic+Lcals through 4 pooled workers into a store,
                plus one in-process reference pass over the same cells

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
runs traced and untraced trials alternately and prints the per-layer
metrics. The last stdout line is the JSON result. Human-readable report
lines (every metric, including the ones BENCHMARK.json does not carry)
precede it. --out writes the full result, with the host fingerprint, to
PATH; nothing is written to the current directory. --tiny shrinks every
workload to a smoke-test size. METRICS.md documents each metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark's directory clean
import metrics as m  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

# Kernels left out of both sweep workloads, with the reason. Each is a
# dense matmul whose cells run at the one-rep floor, so no reps factor
# shortens them; together they would make a trial ~10 s instead of ~6 s.
MATMUL_REASON = ("dense matmul at the one-rep floor: with MAT_MAT_SHARED, "
                 "4 of 76 kernels take 60% of a default-size 6-variant "
                 "sweep (17 s of 28.8 s)")
EXCLUDED = {k: MATMUL_REASON for k in (
    "Basic_MAT_MAT_SHARED", "Polybench_3MM", "Polybench_GEMM", "Polybench_2MM")}

SWEEP_GROUPS = "Stream,Basic,Lcals"
WORKERS = 4

# Suite arguments per workload; "tiny" is the smoke-test size.
CONFIG = {
    "inproc_suite": {
        "full": ["--reps-factor", "0.25"],
        "tiny": ["--groups", "Stream,Basic", "--size-factor", "0.01"],
    },
    "pooled_store": {
        "full": ["--groups", SWEEP_GROUPS, "--reps-factor", "0.1"],
        "tiny": ["--groups", "Stream", "--size-factor", "0.01"],
    },
}
WORKLOADS = tuple(CONFIG)
TRIAL_TIMEOUT_S = 170
# Nominal seconds per trial on a 4-core host. A run makes --seconds /
# TRIAL_S trials whatever their actual length, so a slower program gets
# the same number of trials, not fewer.
TRIAL_S = 6.0
# Set-up-only processes started before each trial. Set-up is a cold,
# once-per-process cost, and on a shared VM it varies more from process
# to process than within one, so a run samples it in many processes.
SETUP_SAMPLES_PER_TRIAL = 3


class BenchError(RuntimeError):
    pass


# ------------------------------------------------------------------ build

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"{ROOT}/src is missing: the benchmark builds the "
                         "rperf libraries from source")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd) + "\n" +
                             p.stdout[-4000:])


def driver(args, out):
    p = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       timeout=TRIAL_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"perfbench_driver {args[0]} exited "
                         f"{p.returncode}: {p.stderr[-2000:]}")
    with open(out) as f:
        return json.load(f)


def fingerprint(seed):
    info = json.loads(subprocess.run([DRIVER, "info"], check=True, text=True,
                                     stdout=subprocess.PIPE).stdout)
    nproc = len(os.sched_getaffinity(0))
    llc = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        try:
            with open(os.path.join(cache, idx, "level")) as f:
                level = int(f.read())
            with open(os.path.join(cache, idx, "size")) as f:
                size = f.read().strip()
        except (OSError, ValueError):
            continue
        if level == 3:
            llc = size
    return {
        "nproc": nproc,
        "omp_threads": int(os.environ.get("OMP_NUM_THREADS", nproc)),
        "llc": llc,
        "pmu_available": info["pmu_available"],
        "hwc_source": info["hwc_source"],
        "pmu_reason": info["pmu_reason"],
        "build_type": info["build_type"],
        "kernels": info["kernels"],
        "seed": seed,
        "git_commit": source_version(),
    }


def source_version():
    """The git commit, or a hash of the sources when not in a git checkout."""
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


# ------------------------------------------------------------------ trials

def trial_count(seconds, kinds):
    """Trials per run: fixed by --seconds, at least one of each kind."""
    n = max(len(kinds), int(seconds / TRIAL_S))
    return n - n % len(kinds)


def run_trials(seconds, trial, kinds):
    """Run trial_count() trials, alternating between the kinds."""
    n = trial_count(seconds, kinds)
    return [(kinds[i % len(kinds)], trial(kinds[i % len(kinds)], i))
            for i in range(n)]


def sweep_args(workload, tiny, work, index, traced, store, cmd="sweep"):
    out = os.path.join(work, f"trial{index}.json")
    args = [cmd, "--out", out, "--exclude", ",".join(EXCLUDED)]
    if traced:
        args += ["--spans", "--probe-dir", os.path.join(work, "probe")]
    args += ["--"] + CONFIG[workload]["tiny" if tiny else "full"]
    if traced:
        args.append("--trace")
    if store:
        store_dir = os.path.join(work, f"store{index}")
        args += ["--workers", str(WORKERS), "--transport", "shm",
                 "--store", store_dir]
    return args, out


def trial_e2e(t):
    """End-to-end figures of one sweep trial, from its own cells."""
    lat_us = [c["time_per_rep_sec"] * 1e6 for c in t["cells"] if m.passed(c)]
    _, tail_v = m.tail(lat_us)
    return {
        "ops_per_s": len(lat_us) / t["run_wall_s"],
        "latency_geomean_us": m.geomean(lat_us),
        "latency_tail_us": tail_v,
        "peak_rss_mb": max(t["peak_rss_kb"], t["pool"]["peak_rss_kb"]) / 1024,
    }


def sweep_e2e(trials):
    """A run's end-to-end figures and each trial's own.

    Timings come from the run's best trial for each figure, because
    interference on a shared host only adds time: on a 4-core VM a
    minute of contention can halve a trial's throughput, and a run's
    median trial goes with it. The trial count is fixed by --seconds, so
    every commit takes the best of the same number of trials. Memory is
    the median trial; set-up the median of the cold set-ups.
    """
    per_trial = [trial_e2e(t) for t in trials]
    return ({"setup_s": m.median([s for t in trials for s in t["setup_s"]]),
             "ops_per_s": max(t["ops_per_s"] for t in per_trial),
             "latency_geomean_us": min(t["latency_geomean_us"] for t in per_trial),
             "latency_tail_us": min(t["latency_tail_us"] for t in per_trial),
             "peak_rss_mb": m.median([t["peak_rss_mb"] for t in per_trial])},
            per_trial)


def suite_layer(t, in_process):
    cells = [c for c in t["cells"] if m.passed(c)]
    wall = t["run_wall_s"]
    n = max(1, len(cells))
    kernel_s = sum(c["time_per_rep_sec"] * c["reps"] for c in cells)
    setup_s = sum(c["setup_ms"] for c in cells) / 1e3
    checksum_s = sum(c["checksum_ms"] for c in cells) / 1e3
    other_s = wall - kernel_s - setup_s - checksum_s if in_process else 0.0
    return {
        "suite.kernel_share": kernel_s / wall,
        "suite.setup_share": setup_s / wall,
        "suite.checksum_share": checksum_s / wall,
        "suite.other_share": other_s / wall,
        "suite.setup_ms_per_cell": setup_s * 1e3 / n,
        "suite.checksum_ms_per_cell": checksum_s * 1e3 / n,
        "suite.other_ms_per_cell": other_s * 1e3 / n,
    }


REDUCE_KERNELS = {"Stream_DOT", "Basic_PI_REDUCE", "Basic_REDUCE3_INT",
                  "Basic_REDUCE_STRUCT", "Basic_TRAP_INT",
                  "Basic_MULTI_REDUCE"}
ATOMIC_KERNELS = {"Basic_PI_ATOMIC", "Basic_DAXPY_ATOMIC"}


def port_layer(t):
    cells = t["cells"]
    ok = [c for c in cells if m.passed(c)]
    seq = [c["time_per_rep_sec"] * 1e6 for c in ok if c["variant"] == "Base_Seq"]
    omp = [c["time_per_rep_sec"] * 1e6 for c in ok if c["variant"] == "Base_OpenMP"]
    kernels = {k["name"]: k for k in t["kernels"]}
    stream = [kernels[c["kernel"]]["bytes_per_rep"] / c["time_per_rep_sec"] / 1e9
              for c in ok if c["kernel"].startswith("Stream_")
              and m.is_openmp(c["variant"])]
    return {
        "port.seq_geomean_us": m.geomean(seq) if seq else 0.0,
        "port.omp_geomean_us": m.geomean(omp) if omp else 0.0,
        "port.omp_speedup": m.variant_ratio(cells, "Base_Seq", "Base_OpenMP"),
        "port.raja_over_base": m.raja_over_base(cells),
        "port.raja_over_base_seq": m.raja_over_base(cells, ("Seq",)),
        "port.raja_over_base_omp": m.raja_over_base(cells, ("OpenMP",)),
        "port.reduce_raja_over_base_omp": m.variant_ratio(
            cells, "RAJA_OpenMP", "Base_OpenMP", REDUCE_KERNELS),
        "port.atomic_omp_over_seq": m.variant_ratio(
            cells, "RAJA_OpenMP", "RAJA_Seq", ATOMIC_KERNELS),
        "kernels.stream_gbs_computed": m.geomean(stream) if stream else 0.0,
    }


def probe_layer(t):
    p = t["probes"]
    return {
        "mem.fill_gbs": p["fill_gbs"],
        "mem.checksum_gbs": p["checksum_gbs"],
        "instrument.wire_encode_us": p["wire_encode_us"],
        "instrument.wire_decode_us": p["wire_decode_us"],
    }


def median_dict(dicts):
    return {k: m.median([d[k] for d in dicts]) for k in dicts[0]}


def zero_layers(prefixes, names):
    return {k: 0.0 for k in names if k.startswith(prefixes)}


class Result:
    """What one workload run found: metrics, extras and checks."""

    def __init__(self):
        self.e2e = {}
        self.layers = {}
        self.extra = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


def check_sweep_trial(res, t, reference, name):
    """Count a sweep trial's cells; reference is None for the first trial."""
    bad = set(m.cross_variant_failures(t["cells"]))
    bad |= {m.cell_key(c) for c in t["cells"] if not m.passed(c)}
    attempted = len(t["cells"])
    nondet = 0
    if reference is not None:
        chk = m.check_cells(t["cells"], reference)
        bad |= {k for _, k in chk["failures"]}
        attempted = chk["attempted"]
        nondet = chk["nondeterministic"]
    res.attempted += attempted
    res.failed += len(bad)
    res.check(not t["degraded"], f"{name}: pool degraded to in-process")
    res.check(t["cross_variant_ok"], f"{name}: variants disagree: "
              + t["cross_variant_details"])
    res.check(not t["store_error"], f"{name}: store failed: {t['store_error']}")
    return nondet


def run_sweep(workload, args, work):
    pooled = workload == "pooled_store"
    res = Result()
    reference = None
    if pooled:
        # The in-process reference pass over the same cells, outside the
        # timed sweeps (and in its own process: no fork after libgomp).
        a, out = sweep_args(workload, args.tiny, work, "ref", False, False)
        reference = driver(a, out)
        check_sweep_trial(res, reference, None, "reference")

    def trial(traced, i):
        setup_s = []
        for j in range(SETUP_SAMPLES_PER_TRIAL):
            a, out = sweep_args(workload, args.tiny, work, f"{i}s{j}", False,
                                pooled, cmd="setup")
            setup_s.append(driver(a, out)["setup_s"])
        a, out = sweep_args(workload, args.tiny, work, i, traced, pooled)
        t = driver(a, out)
        t["setup_s"] = setup_s + [t["setup_s"]]
        if pooled:
            rb = t["store_read_back"]
            res.check(rb["cells_landed"] == len(t["cells"]) and rb["run_complete"],
                      f"trial {i}: {rb['cells_landed']}/{len(t['cells'])} "
                      "cells landed in the store")
            res.check(rb["index_matches_scan"],
                      f"trial {i}: indexed lookup differs from the full scan")
            shutil.rmtree(os.path.join(work, f"store{i}"), ignore_errors=True)
        return t

    kinds = (True, False) if args.trace else (False,)
    trials = run_trials(args.seconds, trial, kinds)
    first = reference["cells"] if pooled else trials[0][1]["cells"]
    nondet = []
    for i, (_, t) in enumerate(trials):
        ref = first if (pooled or i > 0) else None
        n = check_sweep_trial(res, t, ref, f"trial {i}")
        if ref is not None:
            nondet.append(n)

    untraced = [t for traced, t in trials if not traced]
    traced = [t for tr, t in trials if tr]
    measured = traced if args.trace else untraced
    res.e2e, per_trial = sweep_e2e(measured)
    res.extra = {
        "per_trial": per_trial,
        "setup_samples_s": [t["setup_s"] for t in measured],
        "trials": len(measured),
        "cells_per_trial": len(measured[0]["cells"]),
        "tail_percentile": m.tail_percentile(
            sum(map(m.passed, measured[0]["cells"]))),
        "cells_per_s": res.e2e["ops_per_s"],
        "kernel_geomean_us": res.e2e["latency_geomean_us"],
        "raja_over_base": m.median([m.raja_over_base(t["cells"]) for t in measured]),
        "excluded_kernels": EXCLUDED,
    }
    if not args.trace:
        return res

    layers = median_dict([
        {**suite_layer(t, not pooled), **port_layer(t), **probe_layer(t),
         **mem_layer(t, not pooled), **store_probe_layer(t)}
        for t in traced])
    layers["port.nondeterministic_cells"] = m.median(nondet) if nondet else 0.0
    layers.update(sandbox_layer(traced, reference) if pooled else
                  zero_layers(("sandbox.",), LAYER_NAMES))
    layers["instrument.trace_overhead_pct"] = m.median(
        [t["trace_overhead_pct"] for t in traced])
    layers["instrument.trace_delta_pct"] = trace_delta(
        [t["run_wall_s"] for t in traced], [t["run_wall_s"] for t in untraced])
    if pooled:
        landed = [t["store_read_back"]["cells_landed"] / len(t["cells"])
                  for t in traced]
        layers["store.cells_landed_ratio"] = m.median(landed)
        layers["store.warnings"] = float(sum(
            t["store_read_back"]["warnings"] + t["probes"]["store_warnings"]
            for t in traced))
    for t in traced:
        res.check(t["probes"]["wire_round_trip_ok"], "wire codec round trip")
        res.check(t["probes"]["replay_ok"], "store replay read-back")
        res.check(t["probes"]["checksum_finite"], "mem checksum probe")
    res.layers = layers
    res.extra["self_s"] = median_dict([m.self_times(t["spans"]) for t in traced])
    return res


def mem_layer(t, in_process):
    """Pool and dataset-cache hits per cell, from each cell's own counts.

    RunResult carries hits but not the cell's allocation or lookup demand,
    so a pooled trial has no per-cell denominator for a hit ratio. The
    in-process ratios, from the process-wide pool()/data_cache() stats,
    are report-only.
    """
    n = max(1, len(t["cells"]))
    out = {
        "mem.pool_hits_per_cell": sum(c["pool_hits"] for c in t["cells"]) / n,
        "mem.cache_hits_per_cell": sum(c["cache_hits"] for c in t["cells"]) / n,
    }
    if in_process:
        mem = t["mem"]
        lookups = mem["cache_hits"] + mem["cache_misses"]
        out["mem.pool_hit_ratio"] = (mem["pool_reuse_hits"] /
                                     max(1, mem["pool_alloc_calls"]))
        out["mem.cache_hit_ratio"] = mem["cache_hits"] / max(1, lookups)
    return out


def store_probe_layer(t):
    p = t["probes"]
    return {
        "store.append_ms_per_cell": p["append_ms_per_cell"],
        "store.seal_ms": p["seal_ms"],
        "store.catalog_ms": p["catalog_ms"],
        "store.lookup_ms": p["lookup_ms"],
        "store.scan_ms": p["scan_ms"],
        "store.indexed_ratio": p["indexed_ratio"],
        "store.bloom_pruned_ratio": p["bloom_pruned_ratio"],
        "store.cells_landed_ratio": 1.0 if p["replay_ok"] else 0.0,
        "store.warnings": float(p["store_warnings"]),
    }


def sandbox_layer(traced, reference):
    rows = []
    ref_setup = sum(c["setup_ms"] for c in reference["cells"])
    for t in traced:
        fid = m.fidelity(t["cells"], reference["cells"])
        both = fid["seq"] + fid["omp"]
        pool = t["pool"]
        cells = len(t["cells"])
        rows.append({
            "sandbox.fidelity_seq_p50": m.median(fid["seq"]) if fid["seq"] else 0.0,
            "sandbox.fidelity_omp_p50": m.median(fid["omp"]) if fid["omp"] else 0.0,
            # p95 only where the percentile rule allows it (>= 200 cells).
            "sandbox.fidelity_p95": m.percentile(both, 95)
            if len(both) * 0.05 >= m.MIN_BEYOND else 0.0,
            "sandbox.setup_inflation":
                sum(c["setup_ms"] for c in t["cells"]) / max(1e-9, ref_setup),
            "sandbox.affinity_hit_ratio":
                pool["affinity_hits"] / max(1, pool["jobs_dispatched"]),
            "sandbox.child_cpu_s": pool["child_cpu_s"],
            "sandbox.jobs_retried": float(pool["jobs_dispatched"] - cells),
            "sandbox.recycles": float(pool["recycles"]),
            "sandbox.ring_fallbacks": float(pool["ring_fallbacks"]),
            "sandbox.ring_bytes_per_cell": pool["ring_payload_bytes"] / max(1, cells),
            "sandbox.peak_queue_depth": float(pool["peak_queue_depth"]),
        })
    return median_dict(rows)


def trace_delta(traced, untraced):
    """Traced median minus untraced median, as a percent of the latter."""
    if not traced or not untraced:
        return 0.0
    base = m.median(untraced)
    return (m.median(traced) - base) / base * 100.0


# ------------------------------------------------------------------ main

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spec_names(spec, key):
    return [(x["name"], x["unit"]) for x in spec[key]]


LAYER_NAMES = []


def run_workload(name, args):
    work = os.path.join(BUILD_DIR, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return run_sweep(name, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# Per-layer metrics printed but left out of BENCHMARK.json: each would be
# a constant-zero time on a workload that bypasses its layer, or (the hit
# ratios) has no per-cell denominator on the pooled workload.
REPORT_ONLY_UNITS = {
    "suite.setup_ms_per_cell": "ms", "suite.checksum_ms_per_cell": "ms",
    "suite.other_ms_per_cell": "ms", "port.seq_geomean_us": "us",
    "port.omp_geomean_us": "us", "sandbox.child_cpu_s": "s",
    "mem.pool_hit_ratio": "ratio", "mem.cache_hit_ratio": "ratio",
}


def report(name, res, args, spec):
    print(f"== {name}: seed {args.seed}, {args.seconds} s, "
          f"trace {int(args.trace)}")
    for k, v in res.extra.items():
        if k not in ("self_s", "excluded_kernels", "per_trial",
                     "setup_samples_s"):
            print(f"  {k} = {v:.6g}" if isinstance(v, float) else f"  {k} = {v}")
    for k, reason in res.extra.get("excluded_kernels", {}).items():
        print(f"  excluded {k}: {reason}")
    units = dict(spec_names(spec, "end_to_end") + spec_names(spec, "per_layer"),
                 **REPORT_ONLY_UNITS)
    for k, v in list(res.e2e.items()) + sorted(res.layers.items()):
        print(f"  {k} = {v:.6g} {units.get(k, '')}".rstrip())
    for layer, s in sorted(res.extra.get("self_s", {}).items()):
        print(f"  self time {layer} = {s:.6g} s")
    print(f"  attempted = {res.attempted}, failed = {res.failed}, "
          f"fail_frac = {m.fail_frac(res.attempted, res.failed):.6g}")
    for p in res.problems:
        print(f"  PROBLEM: {p}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="one of " + ", ".join(WORKLOADS) +
                    " (comma-separated to run several in turn)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="write the full result document here")
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (not for measurement)")
    args = ap.parse_args(argv)
    names = args.workload.split(",")
    for n in names:
        if n not in WORKLOADS:
            ap.error(f"unknown workload {n!r}")

    try:
        spec = load_spec()
        LAYER_NAMES[:] = [n for n, _ in spec_names(spec, "per_layer")]
        build()
        fp = fingerprint(args.seed)
        results = {n: run_workload(n, args) for n in names}
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    print("host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    key = "per_layer" if args.trace else "end_to_end"
    attempted = failed = 0
    correct = True
    metrics_out = {}
    for n, res in results.items():
        report(n, res, args, spec)
        attempted += res.attempted
        failed += res.failed
        correct &= res.failed == 0 and not res.problems
        values = res.layers if args.trace else res.e2e
        prefix = f"{n}:" if len(results) > 1 else ""
        for metric, unit in spec_names(spec, key):
            metrics_out[prefix + metric] = {"value": values[metric],
                                            "unit": unit}
    if args.out:
        doc = {"fingerprint": fp, "seconds": args.seconds,
               "trace": args.trace,
               "workloads": {n: {"end_to_end": r.e2e, "per_layer": r.layers,
                                 "extra": r.extra, "attempted": r.attempted,
                                 "failed": r.failed, "problems": r.problems}
                             for n, r in results.items()}}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
