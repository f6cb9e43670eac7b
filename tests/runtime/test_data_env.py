"""Target-data regions: residency, mapping costs, lifecycle."""

import numpy as np
import pytest

from repro.dist.policy import Full
from repro.errors import DeviceError, OffloadError
from repro.kernels.axpy import AxpyKernel
from repro.kernels.base import MapSpec
from repro.kernels.registry import make_kernel
from repro.machine.presets import cpu_mic_node, gpu4_node, homogeneous_node, cpu_spec
from repro.memory.space import MapDirection
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.runtime import HompRuntime


def region_for(rt, kernel, directions=None):
    directions = directions or {}
    maps = {
        name: (arr, directions.get(name, MapDirection.TOFROM))
        for name, arr in kernel.arrays.items()
    }
    return TargetDataRegion(
        runtime=rt, maps=maps, partitioned=frozenset(maps)
    )


def test_offload_inside_region_pays_no_per_chunk_transfer():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 100_000)
    with region_for(rt, k) as region:
        result = region.parallel_for(k, schedule="BLOCK")
    for t in result.participating:
        assert t.xfer_in_s == 0.0
        assert t.xfer_out_s == 0.0
    assert np.allclose(k.arrays["y"], k.reference()["y"])


def test_region_charges_map_in_and_out():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 100_000)
    with region_for(rt, k) as region:
        pass
    assert region.map_in_s > 0.0   # x and y staged in
    assert region.map_out_s > 0.0  # y copied back


def test_alloc_maps_move_nothing():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 10_000)
    region = TargetDataRegion(
        runtime=rt,
        maps={"x": (k.arrays["x"], MapDirection.ALLOC)},
        partitioned=frozenset({"x"}),
    )
    with region:
        pass
    assert region.map_in_s == 0.0
    assert region.map_out_s == 0.0


def test_host_only_region_is_free():
    rt = HompRuntime(homogeneous_node(2, cpu_spec()))
    k = make_kernel("axpy", 10_000)
    with region_for(rt, k) as region:
        pass
    assert region.total_time_s == 0.0


def test_offload_outside_region_rejected():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 1000)
    region = region_for(rt, k)
    with pytest.raises(OffloadError):
        region.parallel_for(k, schedule="BLOCK")


def test_residency_restored_after_region_offload():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 1000)
    with region_for(rt, k) as region:
        region.parallel_for(k, schedule="BLOCK")
    assert rt.ledger.empty


def test_total_time_accumulates_offloads():
    rt = HompRuntime(cpu_mic_node())
    k1 = make_kernel("axpy", 50_000)
    with region_for(rt, k1) as region:
        r1 = region.parallel_for(k1, schedule="BLOCK")
        k2 = make_kernel("axpy", 50_000)
        # second kernel's arrays are NOT in the region: normal transfers
        r2 = region.parallel_for(k2, schedule="BLOCK")
    assert region.offload_s == pytest.approx(r1.total_time_s + r2.total_time_s)
    assert region.total_time_s >= region.offload_s


def test_partitioned_arrays_stage_one_share_per_device():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 100_000)
    r_part = region_for(rt, k)
    with r_part:
        pass
    maps = {
        name: (arr, MapDirection.TOFROM) for name, arr in k.arrays.items()
    }
    r_full = TargetDataRegion(runtime=rt, maps=maps, partitioned=frozenset())
    with r_full:
        pass
    # replicating whole arrays to each device costs ~4x a block share
    # (slightly less once per-message latency is included)
    assert r_full.map_in_s > 2.5 * r_part.map_in_s


# -- residency-ledger lifecycle ---------------------------------------------


def test_exception_exit_skips_copy_back():
    """A raising body tears buffers down without charging map-out."""
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 100_000)
    region = region_for(rt, k)
    with pytest.raises(RuntimeError):
        with region:
            raise RuntimeError("body failed")
    assert region.map_out_s == 0.0
    assert region.map_in_s > 0.0  # staging happened before the failure
    assert rt.ledger.empty  # buffers drained regardless


def test_clean_exit_charges_copy_back():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 100_000)
    with region_for(rt, k) as region:
        pass
    assert region.map_out_s > 0.0
    assert rt.ledger.empty


def test_zero_devices_rejected_at_entry(monkeypatch):
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 1000)
    monkeypatch.setattr(rt, "select_devices", lambda devices: [])
    with pytest.raises(OffloadError, match="zero devices"):
        region_for(rt, k).__enter__()


def test_nested_regions_share_staging():
    """An inner region mapping the same arrays stages nothing and only the
    outermost exit drains the buffers."""
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 100_000)
    with region_for(rt, k) as outer:
        with region_for(rt, k) as inner:
            pass
        assert inner.map_in_s == 0.0   # rows already valid on every device
        assert inner.map_out_s == 0.0  # refs still held by the outer region
        assert not rt.ledger.empty
    assert outer.map_in_s > 0.0
    assert outer.map_out_s > 0.0
    assert rt.ledger.empty


def test_reentered_region_repays_staging():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 100_000)
    region = region_for(rt, k)
    with region:
        first_in = region.map_in_s
    with region:
        second_in = region.map_in_s
    assert first_in > 0.0
    assert second_in == pytest.approx(first_in)  # exit drained: repay


def test_region_meta_reports_elision():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 100_000)
    with region_for(rt, k) as region:
        result = region.parallel_for(k, schedule="BLOCK")
    res = result.meta["residency"]
    assert res["bytes_moved"] == 0.0  # everything staged at entry
    assert res["bytes_elided"] > 0.0
    outside = rt.parallel_for(make_kernel("axpy", 100_000), schedule="BLOCK")
    assert "residency" not in outside.meta


def test_resident_restored_when_offload_raises(monkeypatch):
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 1000)
    with region_for(rt, k) as region:
        def boom(*args, **kwargs):
            raise RuntimeError("device fell over")
        monkeypatch.setattr(k, "execute_chunk", boom)
        with pytest.raises(RuntimeError):
            region.parallel_for(k, schedule="BLOCK")
    assert rt.ledger.empty


def test_partitioned_region_follows_placement_policy():
    from repro.dist.policy import Block
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 100_000)
    with region_for(rt, k) as region:
        plan = region.plan
        for name in k.arrays:
            covered = sorted(
                i
                for d in range(4)
                for rg in plan.ranges(name, d)
                for i in (rg.start, rg.stop)
            )
            assert covered[0] == 0 and covered[-1] == k.n_iters
            # block placement: disjoint shares, one per device
            assert len(plan.ranges(name, 0)) == 1


def test_duplicate_devices_rejected_before_anything_is_retained():
    # [0, 0] used to open the region (retaining device 0's ranges twice)
    # and only fail later, from MachineSpec.subset.
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 1000)
    region = region_for(rt, k)
    region.devices = [0, 0]
    with pytest.raises(DeviceError, match="device id 0 selected more than once"):
        region.__enter__()
    assert rt.ledger.empty


def test_array_info_resident_follows_the_ledger():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 1000)
    region = TargetDataRegion(
        runtime=rt,
        maps={"x": (k.arrays["x"], MapDirection.TO)},
        partitioned=frozenset({"x"}),
    )
    with region:
        inside = region.parallel_for(k, schedule="BLOCK")
    outside = rt.parallel_for(make_kernel("axpy", 1000), schedule="BLOCK")
    flags = {a.name: a.resident for a in inside.meta["offload_info"].arrays}
    assert flags == {"x": True, "y": False}
    assert not any(a.resident for a in outside.meta["offload_info"].arrays)


class _AxpyWithEmptyAux(AxpyKernel):
    """axpy plus a zero-extent FULL-mapped input."""

    def __init__(self, n):
        super().__init__(n)
        self.arrays["aux"] = self._initial["aux"] = np.zeros(0)

    def maps(self):
        if "aux" not in self.arrays:  # base-class validation, pre-aux
            return super().maps()
        return super().maps() + (MapSpec("aux", MapDirection.TO, (Full(),)),)


def test_zero_extent_mapped_array_is_free_inside_region():
    rt = HompRuntime(gpu4_node())
    k = _AxpyWithEmptyAux(1000)
    with region_for(rt, k) as region:
        result = region.parallel_for(k, schedule="BLOCK")
    assert result.meta["residency"]["bytes_moved"] == 0.0
    assert sum(t.iters for t in result.traces) == k.n_iters
    assert np.allclose(k.arrays["y"], k.reference()["y"])
    assert rt.ledger.empty
