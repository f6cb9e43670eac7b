"""The ``homp_offloading_info`` object (paper §V).

"Such a request is represented as an ``homp_offloading_info`` object that
contains information for data source pointers, dimension information of an
array, data distribution policies, data mapping directions, offloading
loop distribution policies, etc."

:class:`OffloadInfo` is that object: a fully-resolved, immutable snapshot
of one offload request, assembled before execution.  Proxy behaviour in
this reproduction is driven directly by the kernel/scheduler objects, so
OffloadInfo's role is introspection — examples print it, tests assert on
it, and it round-trips to a plain dict for logging.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.base import LoopKernel
from repro.machine.spec import MachineSpec
from repro.memory.residency import ResidencyLedger
from repro.memory.space import MapDirection
from repro.sched.base import LoopScheduler
from repro.util.ranges import IterRange

__all__ = ["ArrayInfo", "OffloadInfo"]


@dataclass(frozen=True)
class ArrayInfo:
    """Dimension, policy and mapping info for one mapped array."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    nbytes: int
    direction: MapDirection
    policies: tuple[str, ...]
    halo: tuple[int, int]
    resident: bool


@dataclass(frozen=True)
class OffloadInfo:
    """One offload request, fully described."""

    kernel_name: str
    loop_label: str
    iter_space: IterRange
    algorithm: str
    cutoff_ratio: float
    device_ids: tuple[int, ...]
    device_names: tuple[str, ...]
    arrays: tuple[ArrayInfo, ...]
    is_reduction: bool
    serialize_offload: bool = False
    fault_plan: str | None = None  # FaultPlan.describe(), when one is set

    @classmethod
    def _assemble(
        cls,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        machine: MachineSpec,
        device_ids: list[int],
        loop_label: str,
        iter_space: IterRange,
        maps,
        cutoff_ratio: float,
        serialize_offload: bool,
        fault_plan: str | None,
        residency: ResidencyLedger | None,
    ) -> "OffloadInfo":
        """What :meth:`build` and :meth:`from_ir` share.

        ``maps`` yields ``(name, shape, dtype, nbytes, map)`` per mapped
        array, ``map`` carrying direction, policies and halo; an array is
        ``resident`` when the enclosing region's ledger knows it.
        """
        arrays = tuple(
            ArrayInfo(
                name, shape, dtype, nbytes, m.direction,
                tuple(str(p) for p in m.policies), m.halo,
                residency is not None and residency.known(name),
            )
            for name, shape, dtype, nbytes, m in maps
        )
        return cls(
            kernel_name=kernel.name,
            loop_label=loop_label,
            iter_space=iter_space,
            algorithm=scheduler.notation,
            cutoff_ratio=cutoff_ratio,
            device_ids=tuple(device_ids),
            device_names=tuple(machine[i].name for i in device_ids),
            arrays=arrays,
            is_reduction=kernel.is_reduction,
            serialize_offload=serialize_offload,
            fault_plan=fault_plan,
        )

    @classmethod
    def build(
        cls,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        machine: MachineSpec,
        device_ids: list[int],
        *,
        cutoff_ratio: float = 0.0,
        serialize_offload: bool = False,
        fault_plan: str | None = None,
        residency: ResidencyLedger | None = None,
    ) -> "OffloadInfo":
        """Build from the live kernel's effective maps (``residency``: the
        ledger of the enclosing target-data region, None outside one)."""
        arrays = kernel.arrays
        return cls._assemble(
            kernel, scheduler, machine, device_ids,
            kernel.label, kernel.iter_space,
            (
                (
                    m.name,
                    tuple(arrays[m.name].shape),
                    str(arrays[m.name].dtype),
                    int(arrays[m.name].nbytes),
                    m,
                )
                for m in kernel.effective_maps()
            ),
            cutoff_ratio, serialize_offload, fault_plan, residency,
        )

    @classmethod
    def from_ir(
        cls,
        op,
        decls,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        machine: MachineSpec,
        device_ids: list[int],
        *,
        cutoff_ratio: float = 0.0,
        serialize_offload: bool = False,
        fault_plan: str | None = None,
        residency: ResidencyLedger | None = None,
    ) -> "OffloadInfo":
        """Build from a lowered :class:`~repro.ir.ops.OffloadOp`.

        Map identity (name, direction, policies, halo) comes from the IR
        op's :class:`~repro.ir.ops.MapOp` entries, array geometry from
        ``decls`` (name -> :class:`~repro.ir.ops.DataDecl`); the
        residency flag is answered by the region's ledger, as in
        :meth:`build`.  For a faithfully lowered op the result is
        value-identical to :meth:`build`.
        """
        return cls._assemble(
            kernel, scheduler, machine, device_ids,
            op.label, IterRange(0, op.n_iters),
            (
                (m.array, d.shape, d.dtype, d.nbytes, m)
                for m in op.maps
                for d in [decls[m.array]]
            ),
            cutoff_ratio, serialize_offload, fault_plan, residency,
        )

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "loop": f"{self.loop_label}[{self.iter_space.start}:{self.iter_space.stop}]",
            "algorithm": self.algorithm,
            "cutoff_ratio": self.cutoff_ratio,
            "devices": list(self.device_names),
            "reduction": self.is_reduction,
            "serialize_offload": self.serialize_offload,
            "fault_plan": self.fault_plan,
            "arrays": [
                {
                    "name": a.name,
                    "shape": list(a.shape),
                    "dtype": a.dtype,
                    "map": a.direction.value,
                    "partition": list(a.policies),
                    "halo": list(a.halo),
                    "resident": a.resident,
                }
                for a in self.arrays
            ],
        }

    def describe(self) -> str:
        lines = [
            f"offload {self.kernel_name}: loop {self.loop_label}"
            f"[{self.iter_space.start}:{self.iter_space.stop}) via "
            f"{self.algorithm}"
            + (f", cutoff {self.cutoff_ratio:.0%}" if self.cutoff_ratio else "")
        ]
        lines.append(f"  devices: {', '.join(self.device_names)}")
        for a in self.arrays:
            extra = " (resident)" if a.resident else ""
            halo = f" halo{a.halo}" if a.halo != (0, 0) else ""
            lines.append(
                f"  map({a.direction.value}: {a.name}{list(a.shape)} "
                f"partition[{', '.join(a.policies)}]{halo}){extra}"
            )
        return "\n".join(lines)
