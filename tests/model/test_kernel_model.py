"""KernelCosts descriptors and Table IV ratio computation."""

import pytest

from repro.model.kernel_model import KernelCosts
from repro.model.roofline import IntensityClass


def axpy_costs():
    # 2 flops, 3 accesses, 3 transferred elements per iteration
    return KernelCosts(
        flops_of=lambda n: 2.0 * n,
        mem_bytes_of=lambda n: 24.0 * n,
        xfer_bytes_of=lambda n: 24.0 * n,
    )


def test_table4_axpy_ratios():
    c = axpy_costs()
    assert c.mem_comp(10**6) == pytest.approx(1.5)
    assert c.data_comp(10**6) == pytest.approx(1.5)


def test_intensity_class_derived():
    assert axpy_costs().intensity_class(10**6) is IntensityClass.DATA_INTENSIVE


def test_custom_ops_normalisation():
    c = KernelCosts(
        flops_of=lambda n: 10.0 * n,
        mem_bytes_of=lambda n: 8.0 * n,
        xfer_bytes_of=lambda n: 8.0 * n,
        ops_of=lambda n: 2.0 * n,
    )
    # ratios normalised by ops (2/iter), not flops (10/iter)
    assert c.mem_comp(100) == pytest.approx(0.5)
    assert c.data_comp(100) == pytest.approx(0.5)


def test_zero_ops_gives_zero_ratios():
    c = KernelCosts(
        flops_of=lambda n: 0.0,
        mem_bytes_of=lambda n: 8.0 * n,
        xfer_bytes_of=lambda n: 8.0 * n,
    )
    assert c.mem_comp(100) == 0.0
    assert c.data_comp(100) == 0.0
