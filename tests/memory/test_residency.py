"""Residency ledger, placement plans, and the per-offload view."""

import sys
import threading

import pytest

from repro.dist import AlignmentGraph, DimDistribution
from repro.dist.policy import Align, Auto, Block, Cyclic, Full
from repro.errors import MappingError
from repro.memory.residency import DataPlacementPlan, ResidencyLedger
from repro.util.ranges import IterRange


def r(a, b):
    return IterRange(a, b)


class TestLedgerRefcounts:
    def test_retain_release_roundtrip(self):
        led = ResidencyLedger()
        led.register("a", 100, 8)
        led.retain(0, "a", [r(0, 50)])
        assert led.retained(0, "a") == [r(0, 50)]
        unmapped, n_valid = led.release(0, "a", [r(0, 50)])
        assert unmapped == [r(0, 50)]
        assert n_valid == 0  # never marked valid
        assert led.empty

    def test_nested_refs_drain_outermost_only(self):
        led = ResidencyLedger()
        led.register("a", 100, 8)
        led.retain(0, "a", [r(0, 100)])  # outer region
        led.mark_valid(0, "a", [r(0, 100)])
        led.retain(0, "a", [r(20, 60)])  # inner region, same array
        unmapped, n_valid = led.release(0, "a", [r(20, 60)])
        assert unmapped == []  # outer ref still holds the rows
        assert n_valid == 0
        assert led.valid_rows(0, "a") == [r(0, 100)]  # validity untouched
        unmapped, n_valid = led.release(0, "a", [r(0, 100)])
        assert unmapped == [r(0, 100)]
        assert n_valid == 100
        assert led.empty

    def test_geometry_purged_with_last_ref_anywhere(self):
        led = ResidencyLedger()
        led.register("a", 10, 8)
        led.retain(0, "a", [r(0, 5)])
        led.retain(1, "a", [r(5, 10)])
        led.release(0, "a", [r(0, 5)])
        assert led.known("a")  # device 1 still maps it
        led.release(1, "a", [r(5, 10)])
        assert not led.known("a")

    def test_over_release_rejected(self):
        led = ResidencyLedger()
        led.register("a", 10, 8)
        led.retain(0, "a", [r(0, 5)])
        with pytest.raises(MappingError):
            led.release(0, "a", [r(0, 10)])

    def test_remap_with_conflicting_geometry_rejected(self):
        led = ResidencyLedger()
        led.register("a", 10, 8)
        led.retain(0, "a", [r(0, 10)])
        led.register("a", 10, 8)  # idempotent
        with pytest.raises(MappingError):
            led.register("a", 20, 8)
        with pytest.raises(MappingError):
            led.register("a", 10, 4)


class TestValidity:
    def test_note_write_stales_siblings(self):
        led = ResidencyLedger()
        led.register("a", 100, 8)
        for d in (0, 1):
            led.retain(d, "a", [r(0, 100)])
            led.mark_valid(d, "a", [r(0, 100)])
        led.note_write(0, "a", r(40, 60))
        assert led.valid_rows(0, "a") == [r(0, 100)]
        assert led.valid_rows(1, "a") == [r(0, 40), r(60, 100)]
        assert led.missing_everywhere((1,), "a", [r(0, 100)]) == 20
        assert led.missing_everywhere([0, 1], "a", [r(0, 100)]) == 0

    def test_invalidate_device_drops_all_rows_keeps_refs(self):
        led = ResidencyLedger()
        led.register("a", 50, 8)
        led.register("b", 30, 4)
        led.retain(0, "a", [r(0, 50)])
        led.mark_valid(0, "a", [r(0, 50)])
        led.retain(0, "b", [r(0, 30)])
        led.mark_valid(0, "b", [r(10, 30)])
        assert led.invalidate_device(0) == 70
        assert led.valid_rows(0, "a") == []
        assert led.retained(0, "a") == [r(0, 50)]  # mapping survives
        assert led.invalidate_device(0) == 0

    def test_missing_everywhere_sees_any_sibling_copy(self):
        led = ResidencyLedger()
        led.register("a", 100, 8)
        led.retain(0, "a", [r(0, 50)])
        led.retain(1, "a", [r(50, 100)])
        led.mark_valid(0, "a", [r(0, 50)])
        led.mark_valid(1, "a", [r(50, 100)])
        # each device is individually missing the other's half...
        assert led.missing_everywhere((0,), "a", [r(0, 100)]) == 50
        # ...but no row is missing from the region as a whole
        assert led.missing_everywhere([0, 1], "a", [r(0, 100)]) == 0
        led.invalidate_device(1)
        assert led.missing_everywhere([0, 1], "a", [r(0, 100)]) == 50

    def test_stage_charges_missing_rows_once(self):
        """The one stage-and-charge primitive: count, then mark."""
        led = ResidencyLedger()
        led.register("a", 100, 8)
        assert led.stage(0, "a", [r(10, 40)], (0,)) == 30
        assert led.valid_rows(0, "a") == [r(10, 40)]
        assert led.stage(0, "a", [r(10, 40)], (0,)) == 0  # idempotent
        assert led.stage(0, "a", [r(0, 50)], (0,)) == 20  # only the delta
        assert led.valid_rows(0, "a") == [r(0, 50)]

    def test_stage_holders_decide_what_is_free(self):
        led = ResidencyLedger()
        led.register("a", 100, 8)
        led.mark_valid(1, "a", [r(50, 100)])
        # device 0 alone holds none of it; the whole region holds half
        assert led.stage(0, "a", [r(0, 100)], (0, 1)) == 50
        assert led.valid_rows(0, "a") == [r(0, 100)]  # marked either way
        led.invalidate_device(0)
        assert led.stage(0, "a", [r(0, 100)], (0,)) == 100
        # holders are only read: the sibling's validity is untouched
        assert led.valid_rows(1, "a") == [r(50, 100)]

    def test_stage_clamps_rows_to_the_extent(self):
        led = ResidencyLedger()
        led.register("a", 10, 8)
        assert led.stage(0, "a", [r(-3, 25)], (0,)) == 10
        assert led.valid_rows(0, "a") == [r(0, 10)]
        assert led.stage(0, "a", [r(10, 25)], (0,)) == 0
        assert led.stage(1, "a", [r(4, 4)], (1,)) == 0
        assert led.valid_rows(1, "a") == []

    def test_stage_of_an_unmapped_array_is_a_noop(self):
        led = ResidencyLedger()
        assert led.stage(0, "ghost", [r(0, 10)], (0,)) == 0
        assert led.describe()["valid"] == {}

    def test_stage_charges_each_row_once_under_contention(self):
        """Count-then-mark is one critical section: with the whole region
        as holders, stagers racing over the same rows must charge every
        row exactly once between them (as two separately locked calls,
        two threads both count a row missing: 4010 rows charged, not 4000)."""
        led = ResidencyLedger()
        led.register("a", 4000, 8)
        devs = tuple(range(16))
        charged = [0] * len(devs)
        start = threading.Barrier(len(devs))

        def stager(dev):
            start.wait(timeout=60)
            for lo in range(0, 4000, 10):
                charged[dev] += led.stage(dev, "a", [r(lo, lo + 10)], devs)

        threads = [threading.Thread(target=stager, args=(d,)) for d in devs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sum(charged) == 4000
        assert all(led.valid_rows(d, "a") == [r(0, 4000)] for d in devs)

    def test_release_counts_only_valid_unmapped_rows(self):
        led = ResidencyLedger()
        led.register("a", 100, 8)
        led.retain(0, "a", [r(0, 100)])
        led.mark_valid(0, "a", [r(0, 30)])
        _unmapped, n_valid = led.release(0, "a", [r(0, 100)])
        assert n_valid == 30


class TestPlacementPlans:
    def test_full_replicates(self):
        plan = DataPlacementPlan.derive({"a": (12, Full())}, 3)
        for d in range(3):
            assert plan.ranges("a", d) == (r(0, 12),)

    def test_block_splits(self):
        plan = DataPlacementPlan.derive({"a": (10, Block())}, 3)
        assert [plan.placed_rows("a", d) for d in range(3)] == [4, 3, 3]
        covered = sorted(
            i for d in range(3) for rg in plan.ranges("a", d) for i in rg
        )
        assert covered == list(range(10))

    def test_cyclic_tiles_whole_extent(self):
        plan = DataPlacementPlan.derive({"a": (10, Cyclic(2))}, 2)
        covered = sorted(
            i for d in range(2) for rg in plan.ranges("a", d) for i in rg
        )
        assert covered == list(range(10))

    def test_align_follows_target_with_ratio(self):
        plan = DataPlacementPlan.derive(
            {"a": (100, Block()), "b": (50, Align("a", ratio=0.5))}, 2
        )
        assert plan.ranges("a", 0) == (r(0, 50),)
        assert plan.ranges("b", 0) == (r(0, 25),)
        assert plan.ranges("b", 1) == (r(25, 50),)

    def test_align_chain_resolves_like_the_alignment_graph(self):
        """One resolver: a chain scales its root by the composed ratio
        (1.5 here), not hop by hop — the region and an ALIGN loop schedule
        used to disagree ([0,6) [6,12) vs [0,8) [8,14))."""
        plan = DataPlacementPlan.derive(
            {
                "a": (9, Block()),
                "b": (5, Align("a", ratio=0.5)),
                "c": (15, Align("b", ratio=3)),
            },
            2,
        )
        graph = AlignmentGraph()
        graph.add_concrete(
            "a", DimDistribution.from_policy(Block(), r(0, 9), 2)
        )
        graph.add_align("b", Align("a", ratio=0.5))
        graph.add_align("c", Align("b", ratio=3))
        for d in range(2):
            assert plan.ranges("c", d) == graph.resolve("c").device_ranges(d)
        assert plan.describe()["c"] == [[(0, 8)], [(8, 14)]]

    def test_align_overshoot_is_clamped_to_the_aligners_extent(self):
        plan = DataPlacementPlan.derive(
            {"a": (10, Block()), "b": (6, Align("a"))}, 2
        )
        assert plan.ranges("b", 0) == (r(0, 5),)
        assert plan.ranges("b", 1) == (r(5, 6),)
        assert plan.placements["b"].region == r(0, 6)

    def test_align_to_loop_label_falls_back_to_block(self):
        plan = DataPlacementPlan.derive({"a": (10, Align("loop1"))}, 2)
        block = DataPlacementPlan.derive({"a": (10, Block())}, 2)
        assert plan.placements["a"] == block.placements["a"]

    def test_align_cycle_falls_back_to_block(self):
        plan = DataPlacementPlan.derive(
            {"a": (10, Align("b")), "b": (10, Align("a"))}, 2
        )
        block = DataPlacementPlan.derive({"a": (10, Block())}, 2)
        assert plan.placements["a"] == block.placements["a"]
        assert plan.placements["b"] == block.placements["a"]

    def test_auto_takes_block_shape(self):
        plan = DataPlacementPlan.derive({"a": (10, Auto())}, 2)
        block = DataPlacementPlan.derive({"a": (10, Block())}, 2)
        assert plan.placements["a"] == block.placements["a"]

    def test_zero_devices_rejected(self):
        with pytest.raises(MappingError):
            DataPlacementPlan.derive({"a": (10, Full())}, 0)
