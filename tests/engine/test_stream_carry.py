"""Cross-batch double buffering: DeviceCarry threading between runs.

A stream batch hands its successor a per-device :class:`DeviceCarry`
(via the engine's ``carry_out()``): where each pipeline engine frees,
when the device may request its first chunk (``ready``), whether its
one-time setup is already paid (``first_chunk``), and whether it is
permanently gone (``lost``).  The next run seeds its clocks from the
carry, so all stream times are cumulative and batch k+1 overlaps batch
k's drain.
"""

import pytest

from repro.engine.core import DeviceCarry
from repro.engine.simulator import OffloadEngine
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.sched.block import BlockScheduler


def fresh_engine():
    return OffloadEngine(machine=gpu4_node())


def run(eng, carry=None):
    result = eng.run(make_kernel("axpy", 4096), BlockScheduler(), carry_in=carry)
    return result, eng.carry_out()


class TestCarryOut:
    def test_carry_out_covers_every_device(self):
        eng = fresh_engine()
        result, carry = run(eng)
        assert set(carry) == {t.devid for t in result.traces}
        for c in carry.values():
            assert isinstance(c, DeviceCarry)

    def test_carry_records_drain_state(self):
        _, carry = run(fresh_engine())
        for c in carry.values():
            assert c.first_chunk is False  # setup paid in batch 0
            assert not c.lost
            assert c.ready > 0.0
            # The pipeline engines free no earlier than they started.
            assert c.copy_in_free >= 0.0
            assert c.finish >= c.comp_free >= 0.0

    def test_carry_out_available_after_run_returns(self):
        # The run context persists past run(): the stream runner reads
        # the carry *after* collecting the batch result.
        eng = fresh_engine()
        eng.run(make_kernel("axpy", 1024), BlockScheduler())
        assert eng.carry_out()


class TestCarrySeeding:
    def test_times_become_cumulative(self):
        eng = fresh_engine()
        r1, carry = run(eng)
        r2, _ = run(eng, carry)
        assert r2.total_time_s > r1.total_time_s

    def test_second_batch_is_cheaper_than_a_cold_run(self):
        # No first-chunk setup + copy-in overlapping batch 0's drain:
        # the second batch's *delta* undercuts a standalone run.
        eng = fresh_engine()
        r1, carry = run(eng)
        r2, _ = run(eng, carry)
        assert r2.total_time_s - r1.total_time_s < r1.total_time_s

    def test_carry_chain_is_monotone(self):
        eng = fresh_engine()
        result, carry = run(eng)
        for _ in range(3):
            prev_ready = {d: c.ready for d, c in carry.items()}
            result, carry = run(eng, carry)
            for devid, c in carry.items():
                assert c.ready > prev_ready[devid]
            assert result.total_time_s > max(prev_ready.values()) or (
                result.total_time_s > 0
            )

    def test_carried_first_chunk_false_propagates(self):
        eng = fresh_engine()
        _, carry = run(eng)
        _, carry2 = run(eng, carry)
        for c in carry2.values():
            assert c.first_chunk is False


class TestCarriedLoss:
    def test_lost_device_does_no_work(self):
        eng = fresh_engine()
        _, carry = run(eng)
        carry = dict(carry)
        carry[0] = DeviceCarry(lost=True)
        result, _ = run(eng, carry)
        by_dev = {t.devid: t for t in result.traces}
        assert by_dev[0].iters == 0
        # The survivors cover the full iteration space.
        assert sum(t.iters for t in result.traces) == 4096

    def test_lost_marker_survives_in_next_carry(self):
        eng = fresh_engine()
        _, carry = run(eng)
        carry = dict(carry)
        carry[1] = DeviceCarry(lost=True)
        _, carry2 = run(eng, carry)
        assert carry2[1].lost

    def test_results_identical_with_and_without_carry(self):
        # The carry shifts *time*, never *work*: same split, same output.
        import numpy as np

        k_cold = make_kernel("axpy", 4096, seed=3)
        k_warm = make_kernel("axpy", 4096, seed=3)
        eng = fresh_engine()
        eng.run(k_cold, BlockScheduler())
        carry = eng.carry_out()
        eng2 = fresh_engine()
        r_cold = eng2.run(make_kernel("axpy", 4096, seed=3), BlockScheduler())
        r_warm = eng.run(k_warm, BlockScheduler(), carry_in=carry)
        assert [t.iters for t in r_warm.traces] == [
            t.iters for t in r_cold.traces
        ]
        assert np.array_equal(k_warm.arrays["y"], k_cold.arrays["y"])
