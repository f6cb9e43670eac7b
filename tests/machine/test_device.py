"""Device cost model: roofline compute time, transfers, noise streams."""

import pytest

from repro.machine.device import Device
from repro.machine.presets import k40_spec
from repro.machine.spec import DeviceSpec, DeviceType, MemoryKind
from repro.machine.interconnect import Link


def gpu(noise=0.0, seed=0):
    base = k40_spec(noise=noise)
    return Device(0, base, seed)


def test_compute_time_flops_bound():
    d = gpu()
    # negligible memory traffic -> flops-bound
    t = d.compute_time(1.1e9, 8.0, noisy=False)
    assert t == pytest.approx(1e-3 + d.spec.launch_overhead_s)


def test_compute_time_memory_bound():
    d = gpu()
    # negligible flops, 210 MB of traffic at 210 GB/s -> 1 ms
    t = d.compute_time(1.0, 210e6, noisy=False)
    assert t == pytest.approx(1e-3 + d.spec.launch_overhead_s)


def test_roofline_takes_max_not_sum():
    d = gpu()
    t_both = d.compute_time(1.1e9, 210e6, noisy=False)
    assert t_both == pytest.approx(1e-3 + d.spec.launch_overhead_s)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        gpu().compute_time(-1, 0)
    with pytest.raises(ValueError):
        gpu().compute_time(0, -1)


def test_unified_memory_device_shares_host_memory():
    spec = DeviceSpec(
        "u", DeviceType.NVGPU, 100.0, 100.0,
        link=Link(1e-6, 10.0), memory=MemoryKind.UNIFIED,
    )
    d = Device(0, spec)
    assert d.shares_host_memory
    # but the unified link still has a cost if asked directly
    assert spec.link.transfer_time(1e9) > 0


def test_noise_is_reproducible_per_seed():
    d1 = gpu(noise=0.1, seed=42)
    d2 = gpu(noise=0.1, seed=42)
    a = [d1.compute_time(1e9, 0) for _ in range(5)]
    b = [d2.compute_time(1e9, 0) for _ in range(5)]
    assert a == b


def test_noise_changes_with_seed():
    d1 = gpu(noise=0.1, seed=1)
    d2 = gpu(noise=0.1, seed=2)
    assert d1.compute_time(1e9, 0) != d2.compute_time(1e9, 0)


# First three draws of ``Device(devid, spec); reseed(seed)`` at the commit
# that still had the eager generator and ``reseed`` (full_node's device 0
# with noise=0.05, ``compute_time(1e9, 1e8)``): the constructor seed must
# produce the same stream.
_PINNED_DRAWS = {
    (0, 0): ["0x1.a54710cd31be6p-9", "0x1.7968d9d003717p-9", "0x1.6d73eb0c0a6fcp-9"],
    (1, 7): ["0x1.68cc6cf024c92p-9", "0x1.854a5f1fe97e5p-9", "0x1.795498709e22bp-9"],
    (3, 42): ["0x1.681ec7e359af6p-9", "0x1.6de323600d844p-9", "0x1.8999af2a23115p-9"],
    (6, 2**31 - 1): [
        "0x1.96ba1eddc36d6p-9", "0x1.83deef37a64fap-9", "0x1.6bb28f92e0fedp-9",
    ],
}


@pytest.mark.parametrize("devid,seed", sorted(_PINNED_DRAWS))
def test_constructor_seed_draws_the_stream_reseed_drew(devid, seed):
    from dataclasses import replace

    from repro.machine.presets import full_node

    spec = replace(full_node().devices[0], noise=0.05)
    d = Device(devid, spec, seed)
    draws = [d.compute_time(1e9, 1e8).hex() for _ in range(3)]
    assert draws == _PINNED_DRAWS[(devid, seed)]


def test_zero_noise_is_deterministic_exactly():
    d = gpu(noise=0.0)
    assert d.compute_time(1e9, 0) == d.compute_time(1e9, 0)

