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


@dataclass
class DeviceBuffer:
    """Storage for one mapped (sub)array on one device.

    ``storage`` optionally supplies pre-allocated discrete-memory backing
    (a staging buffer reused across chunks); it must match the region's
    shape and the host array's dtype.  Ignored for shared buffers, which
    are always views of host memory.
    """

    name: str
    host_array: np.ndarray
    region: tuple[IterRange, ...]  # per-dim global ranges held by this buffer
    shared: bool  # view of host memory vs discrete copy
    storage: np.ndarray | None = None
    data: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if len(self.region) != self.host_array.ndim:
            raise MappingError(
                f"buffer {self.name!r}: region rank {len(self.region)} != "
                f"array rank {self.host_array.ndim}"
            )
        for dim, r in enumerate(self.region):
            if r.start < 0 or r.stop > self.host_array.shape[dim]:
                raise MappingError(
                    f"buffer {self.name!r}: dim {dim} range [{r.start},{r.stop}) "
                    f"outside array extent {self.host_array.shape[dim]}"
                )
        if self.shared:
            self.data = self.host_array[self._global_index()]  # a view: writes are shared
        elif self.storage is not None:
            shape = tuple(len(r) for r in self.region)
            if self.storage.shape != shape or self.storage.dtype != self.host_array.dtype:
                raise MappingError(
                    f"buffer {self.name!r}: storage shape/dtype "
                    f"{self.storage.shape}/{self.storage.dtype} does not match "
                    f"region {shape}/{self.host_array.dtype}"
                )
            self.data = self.storage
        else:
            self.data = np.empty_like(self.host_array[self._global_index()])

    def _global_index(self) -> tuple[slice, ...]:
        return tuple(r.as_slice() for r in self.region)

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
        np.copyto(self.data, self.host_array[self._global_index()])
        return self.nbytes

    def copy_out(self) -> int:
        """Device -> host. Returns bytes moved (0 when shared)."""
        if self.shared:
            return 0
        self.host_array[self._global_index()] = self.data
        return self.nbytes

    def local_view(self, rows: IterRange) -> np.ndarray:
        """View of the buffer covering a *global* first-dim range."""
        r0 = self.region[0]
        if not r0.contains_range(rows):
            raise MappingError(
                f"buffer {self.name!r}: rows [{rows.start},{rows.stop}) outside "
                f"held range [{r0.start},{r0.stop})"
            )
        local = rows.shift(-r0.start)
        return self.data[local.as_slice()]

