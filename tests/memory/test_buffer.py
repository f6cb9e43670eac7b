"""DeviceBuffer: views of host memory, read-only unless the map writes,
and global-row views."""

import numpy as np
import pytest

from repro.errors import MappingError
from repro.memory.buffer import DeviceBuffer
from repro.util.ranges import IterRange


def host_2d(n=8, m=5):
    return np.arange(n * m, dtype=float).reshape(n, m)


def test_shared_buffer_is_a_view():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(2, 5), IterRange(0, 5)), writable=True)
    assert np.shares_memory(buf.data, h)
    h[2, 0] = -1.0
    assert buf.data[0, 0] == -1.0


def test_outbound_writes_land_in_the_host():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(2, 5), IterRange(0, 5)), writable=True)
    buf.data[0, 0] = -1.0
    buf.local_view(IterRange(4, 5))[:] = 7.0
    assert h[2, 0] == -1.0
    assert np.all(h[4] == 7.0)
    assert h[1, 0] == 5.0 and h[5, 0] == 25.0


def test_inbound_buffer_is_read_only():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(2, 5), IterRange(0, 5)), writable=False)
    with pytest.raises(ValueError, match="read-only"):
        buf.data[0, 0] = -1.0
    with pytest.raises(ValueError, match="read-only"):
        buf.local_view(IterRange(3, 4))[:] = 0.0
    assert h.flags.writeable  # only the view is locked
    np.testing.assert_array_equal(h, host_2d())


def test_region_rank_must_match():
    with pytest.raises(MappingError, match="region rank 1 != array rank 2"):
        DeviceBuffer("a", host_2d(), (IterRange(0, 3),), writable=True)


def test_region_outside_array_rejected():
    with pytest.raises(MappingError, match=r"dim 0 range \[0,99\) outside"):
        DeviceBuffer("a", host_2d(), (IterRange(0, 99), IterRange(0, 5)), True)


def test_local_view_uses_global_rows():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(2, 6), IterRange(0, 5)), writable=False)
    view = buf.local_view(IterRange(3, 5))
    assert np.array_equal(view, h[3:5])


def test_local_view_outside_region_rejected():
    h = host_2d()
    buf = DeviceBuffer("a", h, (IterRange(2, 6), IterRange(0, 5)), writable=True)
    with pytest.raises(MappingError) as err:
        buf.local_view(IterRange(0, 3))
    assert str(err.value) == "buffer 'a': rows [0,3) outside held range [2,6)"


def test_one_dimensional_buffer():
    h = np.arange(10, dtype=float)
    buf = DeviceBuffer("x", h, (IterRange(4, 8),), writable=True)
    assert np.array_equal(buf.data, h[4:8])
    buf.data[:] = 0.0
    assert np.all(h[4:8] == 0.0)
    assert h[3] == 3.0 and h[8] == 8.0
