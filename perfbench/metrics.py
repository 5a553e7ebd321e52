"""Metric code for the repo benchmark: pure functions over trial records.

Everything here works on plain dicts and lists (the JSON perfbench_driver writes
per trial), so test_metrics.py can check it on fixed synthetic inputs.
"""

import math
import statistics

# The suite's RunParams::checksum_tolerance default.
CHECKSUM_TOLERANCE = 1e-7

# Candidate tail percentiles, highest first. 99.9 is left out on purpose:
# the reported percentile must not change between runs of one workload,
# however many samples a run happens to make.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def geomean(values):
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def tail_percentile(n):
    """Highest candidate percentile with at least MIN_BEYOND samples above it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    raise TooFewSamples(
        f"{n} samples: a tail percentile needs at least "
        f"{int(MIN_BEYOND * 100 / (100 - TAIL_PERCENTILES[-1]))}")


def percentile(values, p):
    """Nearest-rank percentile (the value at rank ceil(p/100 * n))."""
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """(percentile, value) of the highest percentile the sample supports."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


def fail_frac(attempted, failed):
    if attempted < 1:
        raise ValueError("fail_frac needs at least one attempted operation")
    return failed / attempted


def checksums_match(a, b, tol=CHECKSUM_TOLERANCE):
    """The suite's rule: |a - b| <= tol * max(|a|, |b|, 1)."""
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def cell_key(cell):
    return (cell["kernel"], cell["variant"], cell["tuning"])


def passed(cell):
    return cell["status"] == "Passed"


def pair_cells(measured, reference):
    """Pair cells by (kernel, variant, tuning).

    Returns (pairs, missing): pairs is a list of (measured, reference)
    cells; missing lists the keys present on one side only.
    """
    ref = {cell_key(c): c for c in reference}
    got = {cell_key(c): c for c in measured}
    pairs = [(got[k], ref[k]) for k in got if k in ref]
    missing = sorted(set(got) ^ set(ref))
    return pairs, missing


def check_cells(measured, reference, tol=CHECKSUM_TOLERANCE):
    """Check a trial's cells against reference cells of the same keys.

    A cell fails when it did not pass, when its partner is missing or did
    not pass, or when its checksum is outside the tolerance of the
    partner's. A reference cell with no measured partner is a failed
    (never produced) cell too. Cells within tolerance whose checksum bits
    differ are counted as nondeterministic, not failed.

    Returns dict(attempted, failed, nondeterministic, failures).
    """
    pairs, missing = pair_cells(measured, reference)
    failures = [("missing", k) for k in missing]
    nondeterministic = 0
    for m, r in pairs:
        if not passed(m) or not passed(r):
            failures.append(("status", cell_key(m)))
        elif not checksums_match(m["checksum"], r["checksum"], tol):
            failures.append(("checksum", cell_key(m)))
        elif m["checksum_hex"] != r["checksum_hex"]:
            nondeterministic += 1
    ref_keys = {cell_key(c) for c in reference}
    only_ref = sum(1 for k in missing if k in ref_keys)
    return {
        "attempted": len(measured) + only_ref,
        "failed": len(failures),
        "nondeterministic": nondeterministic,
        "failures": failures,
    }


def cross_variant_failures(cells, tol=CHECKSUM_TOLERANCE):
    """Cells whose checksum disagrees with their kernel's reference variant.

    Mirrors Executor::checksums_consistent: per (kernel, tuning), the first
    passed variant in suite order is the reference.
    """
    order = ["Base_Seq", "Lambda_Seq", "RAJA_Seq",
             "Base_OpenMP", "Lambda_OpenMP", "RAJA_OpenMP"]
    groups = {}
    for c in cells:
        if passed(c):
            groups.setdefault((c["kernel"], c["tuning"]), []).append(c)
    bad = []
    for group in groups.values():
        group.sort(key=lambda c: order.index(c["variant"]))
        ref = group[0]
        bad += [cell_key(c) for c in group[1:]
                if not checksums_match(c["checksum"], ref["checksum"], tol)]
    return bad


def is_openmp(variant):
    return variant.endswith("_OpenMP")


def fidelity(measured, reference):
    """Per-cell ratio of measured to reference time_per_rep, by cell key.

    Only pairs where both cells passed contribute a ratio; the caller
    counts the rest as failures through check_cells.
    """
    pairs, _ = pair_cells(measured, reference)
    ratios = {"seq": [], "omp": []}
    for m, r in pairs:
        if passed(m) and passed(r) and r["time_per_rep_sec"] > 0:
            family = "omp" if is_openmp(m["variant"]) else "seq"
            ratios[family].append(m["time_per_rep_sec"] / r["time_per_rep_sec"])
    return ratios


def _ratios(cells, num, den, kernels=None):
    """time(num variant) / time(den variant) per kernel with both passed."""
    t = {cell_key(c): c["time_per_rep_sec"] for c in cells if passed(c)}
    return [tn / t[(k, den, tuning)]
            for (k, variant, tuning), tn in t.items()
            if variant == num and (kernels is None or k in kernels)
            and t.get((k, den, tuning), 0) > 0 and tn > 0]


def variant_ratio(cells, num, den, kernels=None):
    """Geomean over kernels of time(num variant) / time(den variant)."""
    ratios = _ratios(cells, num, den, kernels)
    return geomean(ratios) if ratios else 0.0


def raja_over_base(cells, families=("Seq", "OpenMP")):
    """The paper's abstraction overhead: geomean of RAJA_x / Base_x."""
    ratios = [r for x in families
              for r in _ratios(cells, f"RAJA_{x}", f"Base_{x}")]
    return geomean(ratios) if ratios else 0.0


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["t1"] - s["t0"]
    out = {}
    for i, s in enumerate(spans):
        out[s["layer"]] = out.get(s["layer"], 0.0) + (s["t1"] - s["t0"]) - child[i]
    return out
