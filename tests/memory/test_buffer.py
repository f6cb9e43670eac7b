"""DeviceBuffer: views vs copies and global-row views."""

import numpy as np
import pytest

from repro.errors import MappingError
from repro.memory.buffer import DeviceBuffer
from repro.util.ranges import IterRange


def host_2d(n=8, m=5):
    return np.arange(n * m, dtype=float).reshape(n, m)


def test_shared_buffer_is_a_view():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(2, 5), IterRange(0, 5)), shared=True)
    buf.data[0, 0] = -1.0
    assert h[2, 0] == -1.0


def test_discrete_buffer_is_independent_until_copy_out():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(2, 5), IterRange(0, 5)), shared=False)
    buf.copy_in()
    buf.data[0, 0] = -1.0
    assert h[2, 0] != -1.0
    buf.copy_out()
    assert h[2, 0] == -1.0


def test_copy_in_returns_bytes_moved():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(0, 4), IterRange(0, 5)), shared=False)
    assert buf.copy_in() == 4 * 5 * 8


def test_shared_copies_are_free():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(0, 4), IterRange(0, 5)), shared=True)
    assert buf.copy_in() == 0
    assert buf.copy_out() == 0


def test_region_rank_must_match():
    with pytest.raises(MappingError):
        DeviceBuffer("a", host_2d(), (IterRange(0, 3),), shared=True)


def test_region_outside_array_rejected():
    with pytest.raises(MappingError):
        DeviceBuffer("a", host_2d(), (IterRange(0, 99), IterRange(0, 5)), shared=True)


def test_local_view_uses_global_rows():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(2, 6), IterRange(0, 5)), shared=False)
    buf.copy_in()
    view = buf.local_view(IterRange(3, 5))
    assert np.array_equal(view, h[3:5])


def test_local_view_outside_region_rejected():
    buf = DeviceBuffer("a", host_2d(), (IterRange(2, 6), IterRange(0, 5)), shared=False)
    with pytest.raises(MappingError):
        buf.local_view(IterRange(0, 3))


def test_one_dimensional_buffer():
    h = np.arange(10, dtype=float)
    buf = DeviceBuffer("x", h, (IterRange(4, 8),), shared=False)
    buf.copy_in()
    assert np.array_equal(buf.data, h[4:8])
    buf.data[:] = 0.0
    buf.copy_out()
    assert np.all(h[4:8] == 0.0)
    assert h[3] == 3.0
