"""Device buffers: the numerically real half of the simulation.

A :class:`DeviceBuffer` is a device's storage for its subregion of a host
array.  For a device sharing the host address space the buffer is a *view*
(writes land in the host array directly — the runtime "shares" the data);
for discrete memory it is a *copy*, and ``copy_in`` / ``copy_out`` move
bytes explicitly, exactly like the paper's runtime.  Index translation from
global array coordinates to the buffer's local coordinates is what the
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
    """Storage for one mapped (sub)array on one device.

    ``storage`` optionally supplies pre-allocated discrete-memory backing
    (a staging buffer reused across chunks); it must match the region's
    shape and the host array's dtype.  Ignored for shared buffers, which
    are always views of host memory.

    A buffer is built once per chunk per map, so construction does its
    bounds checks and builds the global index tuple in one pass; the tuple
    is reused by :meth:`copy_in`, :meth:`copy_out` and the shared view.
    """

    name: str
    host_array: np.ndarray
    region: tuple[IterRange, ...]  # per-dim global ranges held by this buffer
    shared: bool  # view of host memory vs discrete copy
    storage: np.ndarray | None = None
    data: np.ndarray = field(init=False)
    _index: tuple[slice, ...] = field(init=False, repr=False, compare=False)

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
        self._index = index
        view = host[index]  # in bounds, so its shape is the region's
        if self.shared:
            self.data = view  # a view: writes are shared
        elif self.storage is not None:
            if self.storage.shape != view.shape or self.storage.dtype != host.dtype:
                raise MappingError(
                    f"buffer {self.name!r}: storage shape/dtype "
                    f"{self.storage.shape}/{self.storage.dtype} does not match "
                    f"region {view.shape}/{host.dtype}"
                )
            self.data = self.storage
        else:
            self.data = np.empty_like(view)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def copy_in(self) -> int:
        """Host -> device. Returns bytes moved (0 when shared)."""
        if self.shared:
            return 0
        self.data[...] = self.host_array[self._index]
        return self.data.nbytes

    def copy_out(self) -> int:
        """Device -> host. Returns bytes moved (0 when shared)."""
        if self.shared:
            return 0
        self.host_array[self._index] = self.data
        return self.data.nbytes

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
