"""Residency under a dropout: a region offload charges transfers through
its :class:`~repro.memory.residency.RegionResidency` view, and a lost
device's staged share is voided so the survivors re-pay exactly it.
"""

import pytest

from repro.faults.plan import DeviceDropout, FaultPlan
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.memory.space import MapDirection
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.runtime import HompRuntime


def run_region_offload(*, n=20_000, ndev=4, schedule="BLOCK",
                       fault_plan=None):
    rt = HompRuntime(gpu4_node(ndev))
    k = make_kernel("axpy", n)
    maps = {
        name: (arr, MapDirection.TOFROM) for name, arr in k.arrays.items()
    }
    region = TargetDataRegion(
        runtime=rt, maps=maps, partitioned=frozenset(maps)
    )
    with region:
        result = region.parallel_for(
            k, schedule=schedule, fault_plan=fault_plan
        )
    return result


def test_dropout_invalidates_residency_and_survivors_repay():
    """An intact region moves zero bytes; a t=0 dropout voids the lost
    device's staged share, so survivors re-pay exactly that share."""
    intact = run_region_offload(schedule="BLOCK")
    dropped = run_region_offload(
        schedule="BLOCK",
        fault_plan=FaultPlan(faults=(DeviceDropout(0, t=0.0),)),
    )
    assert intact.meta["residency"]["bytes_moved"] == 0.0
    moved = dropped.meta["residency"]["bytes_moved"]
    assert moved > 0.0
    # axpy reads x and y (block-placed 1/4 share each, 8 B rows): the lost
    # quarter of each input is re-fetched exactly once
    n = 20_000
    assert moved == pytest.approx(2 * (n // 4) * 8)


def test_dropout_emits_invalidation_metric():
    from repro.obs.tracer import Tracer

    rt = HompRuntime(gpu4_node(2))
    k = make_kernel("axpy", 10_000)
    maps = {
        name: (arr, MapDirection.TOFROM) for name, arr in k.arrays.items()
    }
    region = TargetDataRegion(
        runtime=rt, maps=maps, partitioned=frozenset(maps)
    )
    tracer = Tracer()
    with region:
        region.parallel_for(
            k,
            schedule="BLOCK",
            tracer=tracer,
            fault_plan=FaultPlan(faults=(DeviceDropout(0, t=0.0),)),
        )
    snap = tracer.metrics.snapshot()
    rows = [
        v for key, v in snap.get("counters", {}).items()
        if "residency_rows_invalidated" in str(key)
    ]
    assert rows and sum(rows) > 0
