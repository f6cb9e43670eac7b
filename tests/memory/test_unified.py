"""Unified-memory cost model: the 10-18x slowdown regime of paper §V.C."""

import pytest

from repro.machine.interconnect import Link, SHARED_LINK
from repro.machine.presets import k40_spec
from repro.memory.unified import UnifiedMemoryModel


def test_migration_slower_than_explicit():
    m = UnifiedMemoryModel()
    link = k40_spec().link
    n = 100 * 2**20
    assert m.migration_time(link, n) > link.transfer_time(n)


def test_default_slowdown_in_paper_band_for_blas_buffers():
    """The paper measured 10x and 18x slowdowns in BLAS examples; the
    defaults land large-buffer migration in that order of magnitude."""
    m = UnifiedMemoryModel()
    link = k40_spec().link
    for nbytes in (8 * 10**6, 80 * 10**6, 800 * 10**6):
        slow = m.migration_time(link, nbytes) / link.transfer_time(nbytes)
        assert 8.0 <= slow <= 20.0, (nbytes, slow)


def test_zero_bytes_free():
    m = UnifiedMemoryModel()
    assert m.migration_time(k40_spec().link, 0) == 0.0


def test_shared_link_migration_free():
    m = UnifiedMemoryModel()
    assert m.migration_time(SHARED_LINK, 1e9) == 0.0


def test_negative_bytes_rejected():
    with pytest.raises(ValueError):
        UnifiedMemoryModel().migration_time(k40_spec().link, -1)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        UnifiedMemoryModel(bandwidth_fraction=0.0)
    with pytest.raises(ValueError):
        UnifiedMemoryModel(bandwidth_fraction=1.5)
    with pytest.raises(ValueError):
        UnifiedMemoryModel(per_buffer_overhead_s=-1.0)


def test_full_bandwidth_fraction_only_adds_overhead():
    m = UnifiedMemoryModel(bandwidth_fraction=1.0, per_buffer_overhead_s=1e-3)
    link = Link(0.0, 10.0)
    n = 10**9
    assert m.migration_time(link, n) == pytest.approx(
        link.transfer_time(n) + 1e-3
    )
