"""Lowering: parsed HOMP directives + kernels -> the typed offload IR.

The front-end seam (ROADMAP 5b): :func:`from_directive` turns one Fig. 2
pragma and its bound kernel into a one-op :class:`~repro.ir.ops.Program`;
:func:`from_directives` chains several into a multi-offload program the
``fuse-adjacent-offloads`` pass can optimise; :func:`data_region` lowers
a Fig. 3 ``target data`` directive into a program-scope map set a
:class:`~repro.runtime.data_env.TargetDataRegion` is built from.

Lowering preserves the directive path's semantics exactly:

* map ``partition(...)`` entries naming a kernel array become
  :attr:`~repro.ir.ops.OffloadOp.partition_overrides` (the runtime applies
  them via ``set_partition`` before execution, and they persist on the
  kernel afterwards, as they always have); a sectioned map of an array
  the kernel lacks, or a dim >= 1 policy other than the kernel's own,
  raises :class:`~repro.errors.MappingError` instead of being dropped;
* the schedule comes from an explicit override, else the directive's
  ``dist_schedule(target:[...])`` head policy, else ``"AUTO"`` — a
  ``teams:`` modifier is within-device OpenMP and says nothing about the
  cross-device split;
* a ``stream(batches=N, window=W)`` clause wraps the op in a
  :class:`~repro.ir.ops.StreamOp` (the op becomes the batch template; the
  ``stream-pipeline`` pass hoists its maps into ``region_maps``) — from
  either entry point;
* without the ``parallel target`` composite the offload serialises
  (paper §III.4).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.errors import DeviceError, IRVerifyError, MappingError, SchedulingError
from repro.ir.ops import (
    DataDecl,
    MapOp,
    OffloadOp,
    Program,
    ReduceOp,
    StreamOp,
)
from repro.kernels.base import LoopKernel
from repro.lang.pragma import OffloadDirective, parse_directive

__all__ = ["from_directive", "from_directives", "data_region", "decl_for"]


def decl_for(name: str, arr: np.ndarray) -> DataDecl:
    """Geometry declaration for one host array."""
    return DataDecl(
        name=name,
        shape=tuple(int(x) for x in arr.shape),
        dtype=str(arr.dtype),
        nbytes=int(arr.nbytes),
    )


def _parse(directive: "str | OffloadDirective") -> tuple[OffloadDirective, str]:
    if isinstance(directive, str):
        return parse_directive(directive), directive
    return directive, ""


def _merge_decls(
    into: dict[str, DataDecl], decls: Iterable[DataDecl]
) -> None:
    for decl in decls:
        prior = into.get(decl.name)
        if prior is None:
            into[decl.name] = decl
        elif prior != decl:
            raise IRVerifyError(
                f"array {decl.name!r} declared with conflicting geometry: "
                f"{prior.shape}/{prior.dtype} vs {decl.shape}/{decl.dtype}"
            )


def _refuse_unapplied_maps(d: OffloadDirective, kernel: LoopKernel, kernel_maps) -> None:
    """Raise :class:`~repro.errors.MappingError` for a map the runtime would
    drop: a sectioned map of an array the kernel does not have, or a dim
    >= 1 policy other than the kernel's own (arrays are placed by their
    dim-0 partition alone).  Unsectioned scalars (Fig. 2's ``a, n``) pass."""
    own = {m.name: m.policies for m in kernel_maps}
    for m in d.maps:
        if m.name not in kernel.arrays:
            if m.is_scalar:
                continue
            raise MappingError(
                f"{kernel.name}: map names array {m.name!r}, which the "
                f"kernel does not have (arrays: {', '.join(kernel.arrays)})"
            )
        kept = own.get(m.name, ())
        for dim, policy in enumerate(m.policies[1:], 1):
            if dim >= len(kept) or policy != kept[dim]:
                raise MappingError(
                    f"{kernel.name}: map of {m.name!r} sets dim {dim} to "
                    f"{policy}, but a directive places dim 0 alone; the "
                    f"kernel's dim {dim} is "
                    f"{kept[dim] if dim < len(kept) else 'absent'}"
                )


def _lower(pairs, schedule=None) -> Program:
    """The one lowering body: each (directive, kernel) pair becomes one op
    — wrapped in a :class:`~repro.ir.ops.StreamOp` under a ``stream``
    clause — over the merged declarations.  ``schedule`` overrides the
    directives' ``dist_schedule``."""
    merged: dict[str, DataDecl] = {}
    ops = []
    sources = []
    for directive, kernel in pairs:
        d, source = _parse(directive)
        kernel_maps = kernel.effective_maps()
        _refuse_unapplied_maps(d, kernel, kernel_maps)
        overrides = tuple(
            (m.name, m.policies[0])
            for m in d.maps
            if m.name in kernel.arrays and m.policies
        )
        override_by_name = dict(overrides)
        maps = tuple(
            MapOp(
                array=m.name,
                direction=m.direction,
                policies=(override_by_name[m.name], *m.policies[1:])
                if m.name in override_by_name
                else m.policies,
                halo=m.halo,
            )
            for m in kernel_maps
        )
        _merge_decls(
            merged, (decl_for(m.name, kernel.arrays[m.name]) for m in kernel_maps)
        )
        if schedule is not None:
            op_schedule = schedule
        elif d.dist_schedule is not None and d.dist_schedule.modifier == "target":
            op_schedule = d.dist_schedule.policies[0]
        else:
            op_schedule = "AUTO"
        reduce_op = None
        if kernel.is_reduction:
            reduce_op = ReduceOp(
                op=d.reduction[0] if d.reduction else "+",
                var=d.reduction[1] if d.reduction else None,
            )
        op = OffloadOp(
            kernel=kernel,
            label=kernel.label,
            n_iters=kernel.n_iters,
            schedule=op_schedule,
            devices=d.device_clause if d.device_clause else None,
            maps=maps,
            reduce=reduce_op,
            collapse=d.collapse,
            serialize_offload=not d.is_parallel_target,
            partition_overrides=overrides,
        )
        if d.stream is not None:
            op = StreamOp(
                template=op, batches=d.stream.batches, window=d.stream.window
            )
        ops.append(op)
        if source:
            sources.append(source)
    return Program(
        decls=tuple(merged.values()), ops=tuple(ops), source=tuple(sources)
    )


def from_directive(
    directive: "str | OffloadDirective",
    kernel: LoopKernel,
    *,
    schedule=None,
) -> Program:
    """Lower one directive + kernel into a single-offload program.

    ``schedule`` overrides the directive's ``dist_schedule`` (the
    ``offload(..., schedule=...)`` escape hatch).
    """
    return _lower([(directive, kernel)], schedule)


def from_directives(
    pairs: "Iterable[tuple[str | OffloadDirective, LoopKernel]]",
) -> Program:
    """Lower an ordered (directive, kernel) sequence into one program.

    The resulting ops run back to back; the fusion pass may group
    adjacent compatible ones under a shared data environment.
    """
    return _lower(pairs)


def data_region(
    directive: "str | OffloadDirective",
    arrays: Mapping[str, np.ndarray],
) -> Program:
    """Lower a ``target data`` directive into a program-scope map set.

    Scalars in the map clauses are skipped (they are trivially shared);
    a non-scalar map naming an array absent from ``arrays`` raises
    :class:`~repro.errors.DeviceError`, as the directive path always has.
    """
    d, source = _parse(directive)
    if not d.is_data_region:
        raise SchedulingError("directive is not a target data region")
    merged: dict[str, DataDecl] = {}
    region_maps = []
    for m in d.maps:
        if m.name not in arrays:
            if m.is_scalar:
                continue
            raise DeviceError(f"target data maps unknown array {m.name!r}")
        arr = arrays[m.name]
        _merge_decls(merged, [decl_for(m.name, arr)])
        region_maps.append(
            MapOp(
                array=m.name,
                direction=m.direction,
                policies=m.policies,
                halo=m.halo,
            )
        )
    return Program(
        decls=tuple(merged.values()),
        region_maps=tuple(region_maps),
        region_devices=d.device_clause if d.device_clause else None,
        source=(source,) if source else (),
    )
