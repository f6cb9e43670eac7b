"""Target-data regions (the paper's ``parallel target data`` in Fig. 3).

A :class:`TargetDataRegion` keeps named arrays resident on the selected
devices across several offloads — the Jacobi pattern: map ``f``, ``u``,
``uold`` once, iterate many parallel loops without re-transferring, unmap
(copy back ``tofrom`` data) at exit.

Entry derives a :class:`~repro.memory.residency.DataPlacementPlan` from
the region's dim-0 policies (FULL replicates, BLOCK/CYCLIC split, ALIGN
follows its root alignee scaled by the composed ratio, AUTO takes the
BLOCK shape the schedulers converge to) and retains each device's owner
ranges in the runtime's
:class:`~repro.memory.residency.ResidencyLedger` — reference
counted, like the real runtime's device buffers, so nested regions
mapping the same array stage nothing and only the outermost exit drains
the buffer.  Entry charges the copy-in of exactly the rows *not already
valid* on each device; exit releases the references and charges the
copy-out of the valid rows whose refcount reached zero — and only on a
clean exit: when the body raises, buffers are torn down without the
copy-back (the data never materialised).

While the region is open, offloads issued through :meth:`parallel_for`
run with the ledger attached: the engine charges each chunk only the
delta between the rows it touches and what is resident, writes update
ownership (``note_write``), and a device dropout invalidates everything
the lost device held so surviving devices re-pay honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.dist.policy import Block, Full, Policy
from repro.engine.trace import OffloadResult
from repro.errors import OffloadError
from repro.memory.residency import DataPlacementPlan, RegionResidency
from repro.memory.space import MapDirection
from repro.util.ranges import IterRange

if TYPE_CHECKING:
    from repro.runtime.runtime import HompRuntime

__all__ = ["TargetDataRegion"]


@dataclass
class TargetDataRegion:
    """Context manager holding arrays resident across offloads."""

    runtime: HompRuntime
    maps: dict[str, tuple[np.ndarray, MapDirection]]
    devices: list[int] | str | None = None
    partitioned: frozenset[str] = frozenset()  # arrays block-split, not replicated
    #: Dim-0 placement policy per partitioned array (from the directive's
    #: ``partition(...)`` entries); missing names default to BLOCK when
    #: partitioned, FULL otherwise.
    policies: dict[str, Policy] = field(default_factory=dict)
    map_in_s: float = 0.0
    map_out_s: float = 0.0
    offload_s: float = field(default=0.0, init=False)
    _open: bool = field(default=False, init=False)
    _ids: list[int] = field(default_factory=list, init=False)
    _plan: DataPlacementPlan | None = field(default=None, init=False)
    #: (local index, global devid, array, retained ranges) per ledger ref.
    _retained: list[tuple[int, int, str, tuple[IterRange, ...]]] = field(
        default_factory=list, init=False
    )

    @classmethod
    def from_ir(
        cls,
        runtime: HompRuntime,
        map_ops,
        arrays: dict[str, np.ndarray],
        *,
        devices=None,
    ) -> "TargetDataRegion":
        """Build a region from IR :class:`~repro.ir.ops.MapOp` entries.

        ``map_ops`` is a program's ``region_maps`` (the lowered ``target
        data`` directive) or a fused group's merged environment; ``arrays``
        binds each mapped name to its host array.  An array is partitioned
        when any of its policies is non-FULL, and its dim-0 policy drives
        the placement plan — exactly the directive path's rules.
        """
        maps: dict[str, tuple[np.ndarray, MapDirection]] = {}
        partitioned: set[str] = set()
        policies: dict[str, Policy] = {}
        for m in map_ops:
            maps[m.array] = (arrays[m.array], m.direction)
            if m.policies and not all(isinstance(p, Full) for p in m.policies):
                partitioned.add(m.array)
                policies[m.array] = m.policies[0]  # dim-0 placement policy
        return cls(
            runtime=runtime,
            maps=maps,
            devices=devices,
            partitioned=frozenset(partitioned),
            policies=policies,
        )

    def _policy_for(self, name: str) -> Policy:
        pol = self.policies.get(name)
        if pol is not None:
            return pol
        return Block() if name in self.partitioned else Full()

    def __enter__(self) -> "TargetDataRegion":
        ids = self.runtime.select_devices(self.devices)
        if not ids:
            raise OffloadError(
                "target data region opened with zero devices: nothing can "
                "hold the mapped arrays"
            )
        specs = [self.runtime.machine[i] for i in ids]
        ledger = self.runtime.ledger

        entries: dict[str, tuple[int, Policy]] = {}
        for name, (arr, _direction) in self.maps.items():
            rows = int(arr.shape[0]) if arr.ndim else 1
            entries[name] = (rows, self._policy_for(name))
        plan = DataPlacementPlan.derive(entries, len(ids))

        per_device_in = [0.0] * len(ids)
        per_device_out = [0.0] * len(ids)
        retained: list[tuple[int, int, str, tuple[IterRange, ...]]] = []
        for name, (arr, direction) in self.maps.items():
            rows, _pol = entries[name]
            if rows <= 0:
                continue  # zero-extent array: nothing to place or move
            row_bytes = arr.nbytes // rows
            ledger.register(name, rows, row_bytes)
            for k, gid in enumerate(ids):
                ranges = plan.ranges(name, k)
                if not ranges:
                    continue
                if direction.copies_in:
                    # Only the rows not already valid on the device cross
                    # the link (an enclosing region may have staged them).
                    missing = ledger.stage(gid, name, ranges, (gid,))
                    per_device_in[k] += specs[k].link.transfer_time(
                        row_bytes * missing
                    )
                if direction.copies_out:
                    # Projected copy-back; exit replaces this with the
                    # rows actually drained (zero if the body raises).
                    per_device_out[k] += specs[k].link.transfer_time(
                        row_bytes * plan.placed_rows(name, k)
                    )
                ledger.retain(gid, name, ranges)
                retained.append((k, gid, name, ranges))

        self.map_in_s = max(per_device_in, default=0.0)
        self.map_out_s = max(per_device_out, default=0.0)
        self.offload_s = 0.0
        self._ids = ids
        self._plan = plan
        self._retained = retained
        self._open = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._open = False
        ledger = self.runtime.ledger
        per_device_out = [0.0] * len(self._ids)
        for k, gid, name, ranges in self._retained:
            _arr, direction = self.maps[name]
            row_bytes = ledger.row_bytes(name) if ledger.known(name) else 0
            _dropped, n_valid = ledger.release(gid, name, ranges)
            if exc_type is None and direction.copies_out and n_valid:
                spec = self.runtime.machine[gid]
                per_device_out[k] += spec.link.transfer_time(
                    row_bytes * n_valid
                )
        self._retained = []
        # Copy-back happens only when the region body completed; a raising
        # body tears the buffers down without draining them (no map-out).
        self.map_out_s = (
            max(per_device_out, default=0.0) if exc_type is None else 0.0
        )

    @property
    def plan(self) -> DataPlacementPlan:
        """The placement plan derived at entry (open regions only)."""
        if self._plan is None:
            raise OffloadError("target data region is not open")
        return self._plan

    @property
    def residency(self) -> RegionResidency:
        """Ledger view bound to this region's devices (for halo planning)."""
        if not self._open:
            raise OffloadError("target data region is not open")
        return RegionResidency(self.runtime.ledger, self._ids)

    def parallel_for(self, kernel, **kwargs) -> OffloadResult:
        """Offload with this region's arrays held resident."""
        return self.runtime._offload(kernel, region=self, **kwargs)

    # What any offload inside the region — plain, fused member, stream
    # batch — adds to the runtime's two halves.

    def _prepare(self, **bind):
        """:meth:`HompRuntime._prepare` on this region's devices and ledger."""
        if not self._open:
            raise OffloadError("target data region is not open")
        bind.setdefault("devices", self._ids)
        bind.setdefault("residency", self.runtime.ledger)
        return self.runtime._prepare(**bind)

    def _run_bound(self, bound, *cell, **run_args) -> OffloadResult:
        """:meth:`HompRuntime._run_bound`, its time added to the region's."""
        result = self.runtime._run_bound(bound, *cell, **run_args)
        self.offload_s += result.total_time_s
        return result

    @property
    def total_time_s(self) -> float:
        """Mapping cost + all offloads issued inside the region."""
        return self.map_in_s + self.offload_s + self.map_out_s
