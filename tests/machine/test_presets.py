"""Paper-node presets: composition, calibration sanity and the shipped
machine description files."""

from pathlib import Path

import pytest

from repro.errors import MachineSpecError
from repro.kernels.registry import make_kernel
from repro.machine.presets import (
    cpu_mic_node,
    cpu_spec,
    full_node,
    gpu4_node,
    homogeneous_node,
    k40_spec,
    mic_spec,
)
from repro.machine.spec import DeviceType, MachineSpec, MemoryKind
from repro.runtime.runtime import HompRuntime


def test_gpu4_has_four_identical_gpus():
    m = gpu4_node()
    assert len(m) == 4
    assert all(d.dev_type is DeviceType.NVGPU for d in m.devices)
    specs = {(d.sustained_gflops, d.mem_bandwidth_gbs) for d in m.devices}
    assert len(specs) == 1


def test_gpu4_scales_to_count():
    assert len(gpu4_node(2)) == 2


def test_cpu_mic_composition():
    m = cpu_mic_node()
    assert [d.dev_type for d in m.devices] == [
        DeviceType.HOSTCPU, DeviceType.HOSTCPU, DeviceType.MIC, DeviceType.MIC
    ]


def test_full_node_matches_paper_machine():
    m = full_node()
    types = [d.dev_type for d in m.devices]
    assert sum(d.is_host for d in m.devices) == 2
    assert types.count(DeviceType.NVGPU) == 4
    assert types.count(DeviceType.MIC) == 2


def test_hosts_share_memory_accelerators_do_not():
    m = full_node()
    assert m[0].memory is MemoryKind.SHARED
    assert m[2].memory is MemoryKind.DISCRETE
    assert m[6].memory is MemoryKind.DISCRETE


def test_gpu_faster_than_cpu_faster_than_mic_sustained():
    # The calibration that drives every who-wins shape.
    assert k40_spec().sustained_gflops > cpu_spec().sustained_gflops
    assert cpu_spec().sustained_gflops > mic_spec().sustained_gflops


def test_mic_is_overpredicted_by_the_model():
    assert mic_spec().modeled_gflops > mic_spec().sustained_gflops


def test_mic_link_slower_than_gpu_link():
    assert mic_spec().link.bandwidth_gbs < k40_spec().link.bandwidth_gbs
    assert mic_spec().link.latency_s > k40_spec().link.latency_s


def test_setup_costs_ordered_cpu_gpu_mic():
    assert cpu_spec().setup_overhead_s < k40_spec().setup_overhead_s
    assert k40_spec().setup_overhead_s < mic_spec().setup_overhead_s


def test_homogeneous_node_copies_base_spec():
    m = homogeneous_node(3, mic_spec())
    assert len(m) == 3
    assert all(d.dev_type is DeviceType.MIC for d in m.devices)
    assert all(d.model_gflops == mic_spec().model_gflops for d in m.devices)
    assert len({d.name for d in m.devices}) == 3


@pytest.mark.parametrize("n", [True, 2.5])
def test_homogeneous_node_count_must_be_an_int(n):
    # True would otherwise build a one-device node.
    with pytest.raises(MachineSpecError, match="device count must be an int"):
        homogeneous_node(n)


@pytest.mark.parametrize("n", [True, 2.5])
def test_gpu4_node_count_must_be_an_int(n):
    # True would otherwise build a one-GPU node.
    with pytest.raises(MachineSpecError, match="GPU count must be an int"):
        gpu4_node(n)


def test_noise_parameter_propagates():
    m = gpu4_node(noise=0.05)
    assert all(d.noise == 0.05 for d in m.devices)


MACHINES_DIR = Path(__file__).resolve().parents[2] / "machines"


def test_shipped_machine_files_match_presets():
    assert MachineSpec.from_file(MACHINES_DIR / "paper_node.json") == full_node()
    assert MachineSpec.from_file(MACHINES_DIR / "gpu4.json") == gpu4_node()
    assert MachineSpec.from_file(MACHINES_DIR / "cpu2_mic2.json") == cpu_mic_node()


def test_runtime_boots_from_shipped_file():
    rt = HompRuntime.from_file(MACHINES_DIR / "paper_node.json")
    r = rt.parallel_for(make_kernel("axpy", 500), schedule="BLOCK")
    assert r.devices_used == 8
