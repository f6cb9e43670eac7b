"""The homp_offloading_info introspection object (paper §V)."""

import json

import pytest

from repro.dist.policy import Block
from repro.kernels.registry import make_kernel
from repro.machine.presets import full_node, gpu4_node
from repro.memory.space import MapDirection
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.offload_info import OffloadInfo
from repro.runtime.runtime import HompRuntime


@pytest.fixture
def rt():
    return HompRuntime(full_node())


def test_attached_to_every_result(rt):
    r = rt.parallel_for(make_kernel("axpy", 500), schedule="BLOCK")
    info = r.meta["offload_info"]
    assert isinstance(info, OffloadInfo)
    assert info.kernel_name == "axpy"
    assert info.algorithm == "BLOCK"
    assert len(info.device_names) == 8


def test_arrays_carry_dimension_and_policy_info(rt):
    r = rt.parallel_for(make_kernel("matvec", 64), schedule="MODEL_2_AUTO")
    info = r.meta["offload_info"]
    by_name = {a.name: a for a in info.arrays}
    assert by_name["A"].shape == (64, 64)
    assert by_name["A"].policies == ("ALIGN(loop)", "FULL")
    assert by_name["x"].direction.value == "to"
    assert by_name["y"].direction.value == "tofrom"


def test_halo_and_residency_reflected(rt):
    k = make_kernel("stencil", 48)
    region = TargetDataRegion(
        runtime=rt,
        maps={"u_in": (k.arrays["u_in"], MapDirection.TO)},
        partitioned=frozenset({"u_in"}),
    )
    with region:
        r = region.parallel_for(k, schedule="BLOCK")
    info = r.meta["offload_info"]
    by_name = {a.name: a for a in info.arrays}
    assert by_name["u_in"].halo == (3, 3)
    assert by_name["u_in"].resident
    assert not by_name["u_out"].resident


def test_policy_overrides_visible(rt):
    k = make_kernel("axpy", 500)
    k.set_partition("x", Block())
    r = rt.parallel_for(k, schedule="BLOCK")
    info = r.meta["offload_info"]
    by_name = {a.name: a for a in info.arrays}
    assert by_name["x"].policies == ("BLOCK",)


def test_cutoff_and_device_subset_recorded(rt):
    r = rt.parallel_for(
        make_kernel("matmul", 128),
        schedule="MODEL_1_AUTO",
        devices="device(0:*:NVGPU)",
        cutoff_ratio=0.15,
    )
    info = r.meta["offload_info"]
    assert info.cutoff_ratio == 0.15
    assert all(n.startswith("k40") for n in info.device_names)


def test_to_dict_is_json_serialisable(rt):
    r = rt.parallel_for(make_kernel("sum", 500), schedule="SCHED_DYNAMIC")
    info = r.meta["offload_info"]
    payload = json.dumps(info.to_dict())
    back = json.loads(payload)
    assert back["kernel"] == "sum"
    assert back["reduction"] is True


def test_describe_mentions_everything(rt):
    r = rt.parallel_for(make_kernel("stencil", 48), schedule="BLOCK")
    text = r.meta["offload_info"].describe()
    assert "stencil" in text
    assert "BLOCK" in text
    assert "halo(3, 3)" in text
    assert "u_out" in text
