"""Tests for perfbench/benchlib.py.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import benchlib  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(benchlib.percentile(range(1, 101), 99), 99.01)

    def test_single_value_and_median(self):
        self.assertEqual(benchlib.percentile([7.5], 99), 7.5)
        self.assertEqual(benchlib.median([3, 1, 2]), 2)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)


class LayerOfTest(unittest.TestCase):
    def test_member_functions(self):
        self.assertEqual(benchlib.layer_of("_ZNK4pofi3ftl12MappingTable17committable_countEv"), "ftl")
        self.assertEqual(benchlib.layer_of("_ZN4pofi3ssd10WriteCache14on_power_lostEv"), "ssd")
        self.assertEqual(
            benchlib.layer_of("_ZN4pofi8platform12TestPlatform3runERKNS0_14ExperimentSpecE"),
            "platform")
        self.assertEqual(benchlib.layer_of("_ZN4pofi7torture16InvariantAuditor5auditEv"), "torture")
        self.assertEqual(benchlib.layer_of("_ZN4pofi8workload17WorkloadGenerator4nextEv"),
                         "workload")

    def test_lambdas_and_clones_belong_to_their_enclosing_function(self):
        self.assertEqual(
            benchlib.layer_of("_ZZN4pofi3blk10BlockQueue6submitEvENKUlvE_clEv"), "blk")
        self.assertEqual(benchlib.layer_of("_ZN4pofi3sim10EventQueue8pop_nextEv.cold"), "sim")

    def test_thunks(self):
        self.assertEqual(benchlib.layer_of("_ZThn8_N4pofi4nand4ChipD1Ev"), "nand")
        self.assertEqual(benchlib.layer_of("_ZTv0_n24_N4pofi3psu11PowerSupplyD0Ev"), "psu")

    def test_templates_instantiated_for_a_pofi_type_belong_to_its_layer(self):
        self.assertEqual(
            benchlib.layer_of("_ZNSt10_HashtableImSt4pairIKmN4pofi3ssd10WriteCache5EntryEEE"
                              "4findERS2_"), "ssd")
        self.assertEqual(
            benchlib.layer_of("_ZNSt17_Function_handlerIFvbEZN4pofi3ssd10WriteCache11issue_flush"
                              "EmmmEUlbE_E9_M_invokeERKSt9_Any_dataOb"), "ssd")

    def test_everything_else_is_other(self):
        self.assertEqual(
            benchlib.layer_of("_ZNSt6vectorImSaImEE14_M_fill_insertEN9__gnu_cxx17__normal_iterator"
                              "IPmS1_EEmRKm"), "other")
        # A pofi namespace outside the reported layers.
        self.assertEqual(benchlib.layer_of("_ZN4pofi3obs14MetricRegistry3addEjm"), "other")
        self.assertEqual(benchlib.layer_of("_ZN4pofi12_GLOBAL__N_14stepEv"), "other")
        self.assertEqual(benchlib.layer_of("main"), "other")
        self.assertEqual(benchlib.layer_of("memcpy"), "other")


class RollUpTest(unittest.TestCase):
    NM = "\n".join([
        "0000000000001000 0000000000000020 T _ZN4pofi3ftl3Ftl5writeEv",
        "0000000000001020 0000000000000010 t _ZN4pofi3sim10EventQueue3popEv",
        "0000000000001040 W _ZN4pofi3ssd3barEv",
        "0000000000003000 0000000000000008 D _ZN4pofi3ssd4dataE",
        "0000000000001100 0000000000000004 W _ZN4pofi4nand4Chip4peekEv",
        "                 U memcpy",
    ])

    def test_reads_only_sized_text_symbols(self):
        symbols = benchlib.read_symbols(self.NM)
        self.assertEqual([s[2] for s in symbols], [
            "_ZN4pofi3ftl3Ftl5writeEv",
            "_ZN4pofi3sim10EventQueue3popEv",
            "_ZN4pofi4nand4Chip4peekEv",
        ])
        self.assertEqual(symbols[0][:2], (0x1000, 0x20))

    def test_counts_samples_per_layer_after_removing_the_load_bias(self):
        symbols = benchlib.read_symbols(self.NM)
        bias = 0x555500000000
        pcs = [bias + 0x1000, bias + 0x101F, bias + 0x1020, bias + 0x1102,
               bias + 0x1030,  # past the end of EventQueue::pop
               bias + 0x0500,  # before the first symbol
               0x7F0000001234]  # a shared library
        counts = benchlib.roll_up(pcs, symbols, bias)
        self.assertEqual(counts, {"ftl": 2, "sim": 1, "nand": 1, "other": 3})


class RowTest(unittest.TestCase):
    ROW = {"label": "fig8-1200", "status": "ok", "faults": 12, "requests": 4320,
           "data_failures": 3, "fwa_failures": 1, "io_errors": 0}

    def sweep(self, **overrides):
        row = {"label": "torture-smoke", "status": "ok", "schedule_events": 4098,
               "points_planned": 4098, "points_explored": 4098, "points_injected": 4098,
               "violations": 0}
        row.update(overrides)
        return row

    def test_fingerprint_lists_checked_fields_in_order(self):
        self.assertEqual(
            benchlib.row_fingerprint(dict(self.ROW, extra=9)),
            "fig8-1200|status=ok|faults=12|requests=4320|data_failures=3|fwa_failures=1|"
            "io_errors=0")
        self.assertEqual(benchlib.row_fingerprint(self.ROW, ("faults",)), "fig8-1200|faults=12")

    def test_identical_rows_pass_on_the_fields_both_carry(self):
        ref = dict(self.ROW, sim_events=123456)
        self.assertEqual(benchlib.rows_failed([self.ROW], [ref]), 0)
        self.assertEqual(benchlib.rows_failed([dict(ref)], [ref]), 0)

    def test_any_difference_or_bad_status_fails_the_row(self):
        ref = dict(self.ROW, sim_events=123456)
        self.assertEqual(benchlib.rows_failed([dict(self.ROW, fwa_failures=2)], [ref]), 1)
        self.assertEqual(benchlib.rows_failed([dict(ref, sim_events=123457)], [ref]), 1)
        self.assertEqual(benchlib.rows_failed([dict(self.ROW, status="quarantined")],
                                              [self.ROW]), 1)
        self.assertEqual(benchlib.rows_failed([dict(self.ROW, label="other")], [self.ROW]), 1)

    def test_missing_and_extra_rows_fail(self):
        self.assertEqual(benchlib.rows_failed([], [self.ROW, self.ROW]), 2)
        self.assertEqual(benchlib.rows_failed([self.ROW, self.ROW], [self.ROW]), 1)

    def test_planned_rows_check_only_what_every_seed_keeps(self):
        planned = benchlib.planned_rows([dict(self.ROW, sim_events=123456), self.sweep()])
        self.assertEqual(planned, [{"label": "fig8-1200", "status": "ok", "faults": 12},
                                   {"label": "torture-smoke", "status": "ok"}])
        other_seed = [dict(self.ROW, requests=4290, data_failures=7),
                      self.sweep(schedule_events=4101, points_planned=4101,
                                 points_explored=4101, points_injected=4099)]
        self.assertEqual(benchlib.rows_failed(other_seed, planned), 0)
        self.assertEqual(benchlib.rows_failed([dict(self.ROW, faults=11)], planned[:1]), 1)
        self.assertEqual(
            benchlib.rows_failed([self.ROW, self.sweep(points_explored=4090)], planned), 8)

    def test_sweep_rows_count_crash_points(self):
        ref = self.sweep()
        self.assertEqual(benchlib.operations([ref, self.ROW]), 4099)
        self.assertEqual(benchlib.rows_failed([self.sweep()], [ref]), 0)
        # Against itself (a non-default seed): violations and unexplored
        # points fail, the rest of the sweep does not.
        bad = self.sweep(points_explored=4090, violations=2)
        self.assertEqual(benchlib.rows_failed([bad], [bad]), 10)
        # Against the expected row the whole sweep differs.
        self.assertEqual(benchlib.rows_failed([bad], [ref]), 4098)


if __name__ == "__main__":
    unittest.main()
