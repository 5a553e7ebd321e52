"""Tests for the benchmark's metric code on fixed synthetic inputs.

    python3 perfbench/test_metrics.py            # metric code only
    PERFBENCH_SMOKE=1 python3 perfbench/test_metrics.py   # plus smoke runs

The smoke runs build perfbench_driver and run every workload at --tiny size.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as m  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def cell(kernel, variant, t=1e-3, checksum=1.0, hexsum=None, status="Passed"):
    return {"kernel": kernel, "variant": variant, "tuning": "default",
            "status": status, "time_per_rep_sec": t, "checksum": checksum,
            "checksum_hex": hexsum or float(checksum).hex()}


class Geomean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(m.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(m.geomean([2, 8, 4]), 4.0)
        self.assertAlmostEqual(m.geomean([5.0]), 5.0)

    def test_refuses_empty_and_nonpositive(self):
        with self.assertRaises(ValueError):
            m.geomean([])
        with self.assertRaises(ValueError):
            m.geomean([1.0, 0.0])

    def test_ratio_of_geomeans_is_geomean_of_ratios(self):
        a = [1.0, 3.0, 9.0]
        b = [2.0, 2.0, 2.0]
        self.assertAlmostEqual(m.geomean(a) / m.geomean(b),
                               m.geomean([x / y for x, y in zip(a, b)]))


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(m.tail_percentile(1000), 99.0)   # 10 beyond p99
        self.assertEqual(m.tail_percentile(999), 95.0)    # 9.99 beyond p99
        self.assertEqual(m.tail_percentile(200), 95.0)
        self.assertEqual(m.tail_percentile(199), 90.0)
        self.assertEqual(m.tail_percentile(100), 90.0)
        self.assertEqual(m.tail_percentile(40), 75.0)
        self.assertEqual(m.tail_percentile(20), 50.0)
        # p99.9 is never chosen: the percentile must not drift with n.
        self.assertEqual(m.tail_percentile(10 ** 6), 99.0)

    def test_refuses_too_few(self):
        with self.assertRaises(m.TooFewSamples):
            m.tail_percentile(19)
        with self.assertRaises(m.TooFewSamples):
            m.tail(list(range(19)))

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(m.percentile(values, 99), 990)
        self.assertEqual(m.percentile(values, 50), 500)
        self.assertEqual(m.tail(values), (99.0, 990))
        self.assertEqual(m.percentile([3, 1, 2], 100), 3)


class FidelityPairing(unittest.TestCase):
    def test_pairs_by_kernel_variant_tuning(self):
        ref = [cell("A", "Base_Seq", 1.0), cell("A", "Base_OpenMP", 1.0),
               cell("B", "Base_Seq", 2.0)]
        got = [cell("B", "Base_Seq", 3.0), cell("A", "Base_OpenMP", 50.0),
               cell("A", "Base_Seq", 1.5)]
        fid = m.fidelity(got, ref)
        self.assertEqual(sorted(fid["seq"]), [1.5, 1.5])
        self.assertEqual(fid["omp"], [50.0])

    def test_tuning_is_part_of_the_key(self):
        ref = [cell("A", "Base_Seq", 1.0)]
        other = dict(cell("A", "Base_Seq", 4.0), tuning="block_256")
        pairs, missing = m.pair_cells([other], ref)
        self.assertEqual(pairs, [])
        self.assertEqual(len(missing), 2)

    def test_missing_cell_counts_as_failed(self):
        ref = [cell("A", "Base_Seq"), cell("B", "Base_Seq")]
        got = [cell("A", "Base_Seq")]
        chk = m.check_cells(got, ref)
        self.assertEqual(chk["failed"], 1)
        self.assertEqual(chk["failures"], [("missing", ("B", "Base_Seq", "default"))])
        # The cell that never arrived was still attempted.
        self.assertEqual(chk["attempted"], 2)
        # And it contributes no fidelity ratio.
        self.assertEqual(m.fidelity(got, ref), {"seq": [1.0], "omp": []})

    def test_extra_cell_counts_as_failed(self):
        ref = [cell("A", "Base_Seq")]
        got = [cell("A", "Base_Seq"), cell("Z", "Base_Seq")]
        chk = m.check_cells(got, ref)
        self.assertEqual((chk["attempted"], chk["failed"]), (2, 1))

    def test_failed_reference_fails_the_pair(self):
        ref = [cell("A", "Base_Seq", status="Failed")]
        got = [cell("A", "Base_Seq")]
        self.assertEqual(m.check_cells(got, ref)["failed"], 1)
        self.assertEqual(m.fidelity(got, ref), {"seq": [], "omp": []})


class Checksums(unittest.TestCase):
    def test_tolerance_and_nondeterminism(self):
        ref = [cell("A", "Base_OpenMP", checksum=1000.0, hexsum="0x1p+0"),
               cell("B", "Base_OpenMP", checksum=1000.0, hexsum="0x2p+0"),
               cell("C", "Base_OpenMP", checksum=1000.0, hexsum="0x3p+0")]
        got = [cell("A", "Base_OpenMP", checksum=1000.0, hexsum="0x1p+0"),
               # within 1e-7 relative, bits differ: nondeterministic
               cell("B", "Base_OpenMP", checksum=1000.00001, hexsum="0x9p+0"),
               # outside tolerance: failed
               cell("C", "Base_OpenMP", checksum=1000.01, hexsum="0x3p+0")]
        chk = m.check_cells(got, ref)
        self.assertEqual(chk["nondeterministic"], 1)
        self.assertEqual(chk["failed"], 1)
        self.assertEqual(chk["failures"][0][0], "checksum")

    def test_suite_rule_uses_unit_floor(self):
        self.assertTrue(m.checksums_match(0.0, 5e-8))
        self.assertFalse(m.checksums_match(0.0, 2e-7))

    def test_cross_variant_reference_is_first_passed_variant(self):
        cells = [cell("A", "RAJA_OpenMP", checksum=2.0),
                 cell("A", "Base_Seq", checksum=1.0, status="Failed"),
                 cell("A", "Lambda_Seq", checksum=2.0),
                 cell("B", "Base_Seq", checksum=1.0),
                 cell("B", "RAJA_Seq", checksum=1.5)]
        self.assertEqual(m.cross_variant_failures(cells),
                         [("B", "RAJA_Seq", "default")])


class FailFrac(unittest.TestCase):
    def test_denominator_is_attempted(self):
        self.assertEqual(m.fail_frac(200, 0), 0.0)
        self.assertEqual(m.fail_frac(200, 3), 0.015)
        with self.assertRaises(ValueError):
            m.fail_frac(0, 0)

    def test_sweep_denominator_counts_every_cell_once(self):
        ref = [cell(k, v) for k in "ABCD" for v in ("Base_Seq", "RAJA_Seq")]
        got = [dict(c) for c in ref[:-1]]        # one cell never arrived
        got[0]["status"] = "Crashed"              # one crashed
        chk = m.check_cells(got, ref)
        self.assertEqual(chk["attempted"], 8)
        self.assertEqual(chk["failed"], 2)
        self.assertEqual(m.fail_frac(chk["attempted"], chk["failed"]), 0.25)


class PortRatios(unittest.TestCase):
    def test_raja_over_base(self):
        cells = [cell("A", "Base_Seq", 1.0), cell("A", "RAJA_Seq", 2.0),
                 cell("A", "Base_OpenMP", 1.0), cell("A", "RAJA_OpenMP", 0.5),
                 cell("B", "Base_Seq", 1.0), cell("B", "RAJA_Seq", 4.0)]
        self.assertAlmostEqual(m.raja_over_base(cells, ("Seq",)), math.sqrt(8))
        self.assertAlmostEqual(m.raja_over_base(cells, ("OpenMP",)), 0.5)
        self.assertAlmostEqual(m.raja_over_base(cells), 2 ** (2 / 3))
        self.assertEqual(m.raja_over_base([cell("A", "Base_Seq")]), 0.0)

    def test_variant_ratio_restricted_to_kernels(self):
        cells = [cell("A", "Base_Seq", 4.0), cell("A", "Base_OpenMP", 1.0),
                 cell("B", "Base_Seq", 9.0), cell("B", "Base_OpenMP", 1.0)]
        self.assertAlmostEqual(m.variant_ratio(cells, "Base_Seq", "Base_OpenMP"), 6.0)
        self.assertAlmostEqual(
            m.variant_ratio(cells, "Base_Seq", "Base_OpenMP", {"A"}), 4.0)


class SelfTimes(unittest.TestCase):
    def test_child_time_is_subtracted(self):
        spans = [
            {"layer": "suite", "t0": 0.0, "t1": 10.0, "parent": -1},
            {"layer": "store", "t0": 1.0, "t1": 4.0, "parent": 0},
            {"layer": "store", "t0": 5.0, "t1": 6.0, "parent": 0},
            {"layer": "mem", "t0": 11.0, "t1": 12.5, "parent": -1},
        ]
        self.assertEqual(m.self_times(spans),
                         {"suite": 6.0, "store": 4.0, "mem": 1.5})


@unittest.skipUnless(os.environ.get("PERFBENCH_SMOKE"), "set PERFBENCH_SMOKE=1")
class Smoke(unittest.TestCase):
    """Tiny-size runs of the real command."""

    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--tiny"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_workload_untraced_and_traced(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        for w in ("inproc_suite", "pooled_store"):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    r = self.run_bench(w, trace)
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(set(r["metrics"]),
                                     {x["name"] for x in spec[key]})

    def test_inproc_then_pooled_in_one_invocation(self):
        # OpenMP warm-up in the in-process workload must not deadlock the
        # pooled workload's fork: each runs in its own process.
        r = self.run_bench("inproc_suite,pooled_store", 0)
        self.assertTrue(r["correct"])
        self.assertIn("inproc_suite:ops_per_s", r["metrics"])
        self.assertIn("pooled_store:ops_per_s", r["metrics"])


if __name__ == "__main__":
    unittest.main()
