"""Device buffers: the numerically real half of the simulation.

A :class:`DeviceBuffer` is a device's window on its subregion of a host
array: a *view*, on every device kind.  What a discrete device pays to move
those bytes is priced by the link model (``chunk_bytes`` ->
``transfer_time``), not re-enacted here, because copy-in -> compute ->
copy-out on a private buffer computes exactly what compute on a view
computes.  A buffer for a map that does not copy out is a read-only view,
so a kernel that writes through a pure-input (``to``) map raises numpy's
read-only ``ValueError`` on whichever device runs it.  Index translation
from global array coordinates to the buffer's local coordinates is what the
paper's compiler book-keeping variables do; here :meth:`local_view`
carries the dim-0 subregion offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MappingError
from repro.util.ranges import IterRange

__all__ = ["DeviceBuffer"]


@dataclass(slots=True)
class DeviceBuffer:
    """One mapped (sub)array on one device: a view of the host array.

    A buffer is built once per chunk per map, so construction does its
    bounds checks and slices the host array in one pass.
    """

    name: str
    host_array: np.ndarray
    region: tuple[IterRange, ...]  # per-dim global ranges held by this buffer
    writable: bool  # False: a read-only view (the map does not copy out)
    data: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        host = self.host_array
        extents = host.shape
        if len(self.region) != host.ndim:
            raise MappingError(
                f"buffer {self.name!r}: region rank {len(self.region)} != "
                f"array rank {host.ndim}"
            )
        index = ()
        for dim, r in enumerate(self.region):
            if r.start < 0 or r.stop > extents[dim]:
                raise MappingError(
                    f"buffer {self.name!r}: dim {dim} range [{r.start},{r.stop}) "
                    f"outside array extent {extents[dim]}"
                )
            index += (slice(r.start, r.stop),)
        view = host[index]
        if not self.writable:
            view.flags.writeable = False
        self.data = view

    def local_view(self, rows: IterRange) -> np.ndarray:
        """View of the buffer covering a *global* first-dim range."""
        r0 = self.region[0]
        lo = r0.start
        if rows.start < lo or rows.stop > r0.stop:
            raise MappingError(
                f"buffer {self.name!r}: rows [{rows.start},{rows.stop}) outside "
                f"held range [{lo},{r0.stop})"
            )
        return self.data[rows.start - lo : rows.stop - lo]
