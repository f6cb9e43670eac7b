"""FaultPlan: validation, deterministic draws, canonical serialisation."""

import math

import pytest

from repro.errors import FaultPlanError
from repro.faults.plan import (
    DeviceDropout,
    FaultPlan,
    Slowdown,
    TransferError,
)


class TestValidation:
    def test_slowdown_rejects_bad_factor(self):
        with pytest.raises(FaultPlanError):
            Slowdown(devid=0, factor=0.0)
        with pytest.raises(FaultPlanError):
            Slowdown(devid=0, factor=math.inf)

    def test_slowdown_rejects_bad_window(self):
        with pytest.raises(FaultPlanError):
            Slowdown(devid=0, factor=2.0, t_start=2.0, t_end=1.0)
        with pytest.raises(FaultPlanError):
            Slowdown(devid=0, factor=2.0, t_start=-1.0)

    def test_transfer_error_rejects_p_out_of_range(self):
        with pytest.raises(FaultPlanError):
            TransferError(devid=0, p_fail=1.0)
        with pytest.raises(FaultPlanError):
            TransferError(devid=0, p_fail=-0.1)

    def test_dropout_rejects_bad_time(self):
        with pytest.raises(FaultPlanError):
            DeviceDropout(devid=0, t=-1.0)
        with pytest.raises(FaultPlanError):
            DeviceDropout(devid=0, t=math.inf)

    def test_negative_devid_rejected_everywhere(self):
        with pytest.raises(FaultPlanError):
            Slowdown(devid=-1, factor=2.0)
        with pytest.raises(FaultPlanError):
            TransferError(devid=-1, p_fail=0.5)
        with pytest.raises(FaultPlanError):
            DeviceDropout(devid=-1, t=0.0)

    @pytest.mark.parametrize("devid", [True, 1.0, "1"])
    def test_non_int_devid_rejected_everywhere(self, devid):
        # True would otherwise target device 1.
        with pytest.raises(FaultPlanError, match="devid must be an int"):
            Slowdown(devid=devid, factor=2.0)
        with pytest.raises(FaultPlanError, match="devid must be an int"):
            TransferError(devid=devid, p_fail=0.5)
        with pytest.raises(FaultPlanError, match="devid must be an int"):
            DeviceDropout(devid=devid, t=0.0)

    @pytest.mark.parametrize("make", [
        lambda: Slowdown(0, factor=True),
        lambda: TransferError(0, p_fail=False),
        lambda: TransferError(0, p_fail=0.5, seed=True),
        lambda: DeviceDropout(0, t=True),
    ], ids=["slowdown-factor", "transfer-p_fail", "transfer-seed", "dropout-t"])
    def test_bool_values_rejected(self, make):
        # True and False are ints to Python; as a factor, a probability, a
        # seed or a time they are a mistake, not 1 or 0.
        with pytest.raises(FaultPlanError):
            make()

    def test_plan_rejects_foreign_objects(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(faults=("not a fault",))  # type: ignore[arg-type]

    def test_fault_plan_error_is_value_error(self):
        with pytest.raises(ValueError):
            Slowdown(devid=0, factor=-1.0)


class TestQueries:
    def test_slowdown_factor_stacks_multiplicatively(self):
        plan = FaultPlan.of(
            Slowdown(devid=0, factor=2.0, t_start=0.0, t_end=1.0),
            Slowdown(devid=0, factor=3.0, t_start=0.5, t_end=2.0),
        )
        assert plan.slowdown_factor(0, 0.25) == 2.0
        assert plan.slowdown_factor(0, 0.75) == 6.0
        assert plan.slowdown_factor(0, 1.5) == 3.0
        assert plan.slowdown_factor(0, 5.0) == 1.0
        assert plan.slowdown_factor(1, 0.25) == 1.0

    def test_slowdown_window_is_half_open(self):
        plan = FaultPlan.of(Slowdown(devid=0, factor=2.0, t_start=1.0, t_end=2.0))
        assert plan.slowdown_factor(0, 1.0) == 2.0
        assert plan.slowdown_factor(0, 2.0) == 1.0

    def test_dropout_t_earliest_wins(self):
        plan = FaultPlan.of(
            DeviceDropout(devid=3, t=2.0), DeviceDropout(devid=3, t=1.0)
        )
        assert plan.dropout_t(3) == 1.0
        assert plan.dropout_t(0) is None

    def test_empty_plan(self):
        assert FaultPlan().empty
        assert FaultPlan().describe() == "fault-free"
        assert not FaultPlan.of(DeviceDropout(devid=0, t=1.0)).empty


class TestDraws:
    def test_draws_are_deterministic(self):
        f = TransferError(devid=2, p_fail=0.5, seed=11)
        seq1 = [f.fails(i, "in") for i in range(64)]
        seq2 = [f.fails(i, "in") for i in range(64)]
        assert seq1 == seq2
        assert any(seq1) and not all(seq1)  # p=0.5 hits both outcomes

    def test_draws_keyed_by_coordinates(self):
        f = TransferError(devid=2, p_fail=0.5, seed=11)
        assert [f.fails(i, "in") for i in range(64)] != [
            f.fails(i, "out") for i in range(64)
        ]
        g = TransferError(devid=2, p_fail=0.5, seed=12)
        assert [f.fails(i, "in") for i in range(64)] != [
            g.fails(i, "in") for i in range(64)
        ]

    def test_p_zero_never_fails(self):
        f = TransferError(devid=0, p_fail=0.0)
        assert not any(f.fails(i, d) for i in range(100) for d in ("in", "out"))


class TestSerialisation:
    def _plan(self):
        return FaultPlan.of(
            Slowdown(devid=1, factor=4.0, t_start=0.1, t_end=0.2),
            TransferError(devid=2, p_fail=0.05, seed=3),
            DeviceDropout(devid=0, t=0.5),
            name="mixed",
        )

    def test_to_dict_is_order_canonical(self):
        a = FaultPlan.of(
            DeviceDropout(devid=0, t=0.5), TransferError(devid=2, p_fail=0.05)
        )
        b = FaultPlan.of(
            TransferError(devid=2, p_fail=0.05), DeviceDropout(devid=0, t=0.5)
        )
        assert a.to_dict() == b.to_dict()

    def test_describe_names_plan(self):
        assert self._plan().describe() == "mixed(3 faults)"
