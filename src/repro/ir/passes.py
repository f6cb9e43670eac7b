"""Rewrite passes over lowered offload programs.

Each pass is ``Program -> Program`` on immutable nodes.  The default
pipeline, in order:

``normalize-maps``
    Dedupe/widen overlapping map clauses per op (and per program-scope
    region): duplicate maps of one array merge into a single op with the
    unioned direction (``to`` + ``from`` -> ``tofrom``), the per-side
    maximum halo, and per-dimension widened policies (identical policies
    keep, a FULL widens over a partitioned one; two *different*
    partitioned policies are irreconcilable and raise
    :class:`~repro.errors.IRVerifyError`).

``derive-halo``
    Attach a :class:`~repro.ir.ops.HaloOp` to every offload map that is
    dim-0 partitioned with a non-zero halo — the symbolic boundary
    exchange :func:`repro.runtime.halo.plan_halo_op` prices at run time.

``fuse-adjacent-offloads``
    Merge maximal runs of back-to-back compatible offloads into one
    :class:`~repro.ir.ops.FusedOffloadOp` sharing a data environment, so
    the residency ledger elides the intermediate transfers.  Fusion
    legality (all required; an incompatible pair is simply left unfused):

    * same iteration count, device clause and serialization mode;
    * at least one shared array, and every shared name bound to the
      *same host array* in both kernels;
    * for any shared array some member writes, all members mapping it
      agree on the dim-0 policy (the region must place it one way);
    * the merged region maps are constructible (read-only policy
      conflicts widen to FULL; irreconcilable ones block fusion).

Fusion never changes numerics — ground truth lives in the host arrays —
only the transfer accounting (``bytes_elided``) and virtual time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable

from repro.dist.policy import Full, Policy
from repro.errors import IRVerifyError
from repro.ir.ops import (
    FusedOffloadOp,
    HaloOp,
    MapOp,
    OffloadOp,
    Program,
    StreamOp,
)
from repro.memory.space import MapDirection

__all__ = [
    "DEFAULT_PIPELINE",
    "PASSES",
    "run_passes",
    "normalize_maps",
    "derive_halo",
    "fuse_adjacent_offloads",
    "stream_pipeline",
]


def _direction_union(directions: Iterable[MapDirection]) -> MapDirection:
    directions = tuple(directions)
    copies_in = any(d.copies_in for d in directions)
    copies_out = any(d.copies_out for d in directions)
    if copies_in and copies_out:
        return MapDirection.TOFROM
    if copies_in:
        return MapDirection.TO
    if copies_out:
        return MapDirection.FROM
    return MapDirection.ALLOC


def _widen_policies(
    variants: list[tuple[Policy, ...]], array: str
) -> tuple[Policy, ...]:
    """Per-dimension widening of several policy tuples for one array."""
    ranks = {len(v) for v in variants}
    if len(ranks) != 1:
        raise IRVerifyError(
            f"map {array!r} appears with conflicting ranks {sorted(ranks)}"
        )
    out: list[Policy] = []
    for d in range(ranks.pop()):
        dim = {v[d] for v in variants}
        if len(dim) == 1:
            out.append(dim.pop())
            continue
        non_full = [p for p in dim if not isinstance(p, Full)]
        if len(non_full) > 1:
            raise IRVerifyError(
                f"map {array!r} dim {d}: conflicting partition policies "
                f"{sorted(str(p) for p in non_full)} cannot be widened"
            )
        # FULL covers any partitioned share: widen to replication.
        out.append(Full())
    return tuple(out)


def _merge_maps(maps: Iterable[MapOp]) -> tuple[MapOp, ...]:
    """Merge duplicate-array maps (first-appearance order)."""
    order: list[str] = []
    groups: dict[str, list[MapOp]] = {}
    for m in maps:
        if m.array not in groups:
            order.append(m.array)
            groups[m.array] = []
        groups[m.array].append(m)
    out: list[MapOp] = []
    for name in order:
        group = groups[name]
        if len(group) == 1:
            out.append(group[0])
            continue
        policies = _widen_policies([m.policies for m in group], name)
        halo = (
            max(m.halo[0] for m in group),
            max(m.halo[1] for m in group),
        )
        if not policies or isinstance(policies[0], Full):
            halo = (0, 0)  # a replicated map has no boundary
        out.append(
            MapOp(
                array=name,
                direction=_direction_union(m.direction for m in group),
                policies=policies,
                halo=halo,
            )
        )
    return tuple(out)


def _rewrite_offloads(
    program: Program, rewrite: Callable[[OffloadOp], OffloadOp]
) -> Program:
    """Apply ``rewrite`` to every member offload through the op-member
    protocol; ``program`` itself comes back when no member changed."""
    ops = tuple(
        op.with_offloads(tuple(rewrite(m) for m in op.offloads))
        for op in program.ops
    )
    if all(new is old for new, old in zip(ops, program.ops)):
        return program
    return replace(program, ops=ops)


def normalize_maps(program: Program) -> Program:
    """Dedupe/widen overlapping map clauses in every op and the region."""

    def rewrite(op: OffloadOp) -> OffloadOp:
        merged = _merge_maps(op.maps)
        return op if merged == op.maps else replace(op, maps=merged)

    region_maps = _merge_maps(program.region_maps)
    out = _rewrite_offloads(program, rewrite)
    if region_maps != program.region_maps:
        out = replace(out, region_maps=region_maps)
    return out


def derive_halo(program: Program) -> Program:
    """Attach symbolic HaloOps to every stencil-shaped offload map."""

    def rewrite(op: OffloadOp) -> OffloadOp:
        halos = tuple(
            HaloOp(
                array=m.array,
                lower=m.halo[0],
                upper=m.halo[1],
                row_bytes=program.decl(m.array).row_bytes,
            )
            for m in op.maps
            if m.partitioned and m.halo != (0, 0)
        )
        return op if halos == op.halos else replace(op, halos=halos)

    return _rewrite_offloads(program, rewrite)


def _written_by(members: Iterable[OffloadOp]) -> set[str]:
    return {
        m.array
        for member in members
        for m in member.maps
        if m.direction.copies_out
    }


def _try_region_maps(
    members: tuple[OffloadOp, ...],
) -> tuple[MapOp, ...] | None:
    """Merged data environment for a candidate fused group, or None."""
    try:
        return _merge_maps(m for member in members for m in member.maps)
    except IRVerifyError:
        return None


def _can_join(group: list[OffloadOp], candidate: OffloadOp) -> bool:
    head = group[0]
    if (
        candidate.n_iters != head.n_iters
        or candidate.devices != head.devices
        or candidate.serialize_offload != head.serialize_offload
    ):
        return False
    group_names = {name for m in group for name in m.map_names}
    shared = group_names & set(candidate.map_names)
    if not shared:
        return False
    # The fused environment is keyed by name: every shared name must bind
    # the same host array everywhere.
    for member in group:
        for name in set(member.map_names) & set(candidate.map_names):
            if member.kernel.arrays[name] is not candidate.kernel.arrays[name]:
                return False
    # Arrays any member writes must be placed one way: all mappers agree
    # on the dim-0 policy.
    trial = (*group, candidate)
    for name in _written_by(trial):
        dim0 = {
            m.policies[0]
            for member in trial
            for m in member.maps
            if m.array == name and m.policies
        }
        if len(dim0) > 1:
            return False
    return _try_region_maps(trial) is not None


def fuse_adjacent_offloads(program: Program) -> Program:
    """Group maximal runs of compatible adjacent offloads."""
    ops = list(program.ops)
    out: list[OffloadOp | FusedOffloadOp] = []
    i = 0
    changed = False
    while i < len(ops):
        op = ops[i]
        if not isinstance(op, OffloadOp):
            out.append(op)
            i += 1
            continue
        group = [op]
        j = i + 1
        while (
            j < len(ops)
            and isinstance(ops[j], OffloadOp)
            and _can_join(group, ops[j])
        ):
            group.append(ops[j])
            j += 1
        if len(group) > 1:
            region_maps = _try_region_maps(tuple(group))
            assert region_maps is not None  # _can_join validated each step
            out.append(
                FusedOffloadOp(members=tuple(group), region_maps=region_maps)
            )
            changed = True
        else:
            out.append(op)
        i = j
    return replace(program, ops=tuple(out)) if changed else program


def stream_pipeline(program: Program) -> Program:
    """Hoist every stream's per-batch maps into a persistent region.

    A :class:`~repro.ir.ops.StreamOp` without ``region_maps`` would open
    and tear down its template's data environment every batch, restaging
    everything.  This pass fills ``region_maps`` with the merged template
    map set, so the runtime opens *one* target-data region across the
    whole batch sequence: the residency ledger then keeps device-resident
    state between batches and steady-state batches pay only the
    sliding-window delta.  Streams whose region is already set (or whose
    template maps nothing) pass through unchanged.
    """
    changed = False
    ops = []
    for op in program.ops:
        if (
            isinstance(op, StreamOp)
            and not op.region_maps
            and op.template.maps
        ):
            op = replace(op, region_maps=_merge_maps(op.template.maps))
            changed = True
        ops.append(op)
    return replace(program, ops=tuple(ops)) if changed else program


PASSES: dict[str, Callable[[Program], Program]] = {
    "normalize-maps": normalize_maps,
    "derive-halo": derive_halo,
    "fuse-adjacent-offloads": fuse_adjacent_offloads,
    "stream-pipeline": stream_pipeline,
}

#: The standard pipeline, in application order.
DEFAULT_PIPELINE: tuple[str, ...] = (
    "normalize-maps",
    "derive-halo",
    "fuse-adjacent-offloads",
    "stream-pipeline",
)


def run_passes(
    program: Program,
    pipeline: "Iterable[str | Callable[[Program], Program]] | None" = None,
) -> Program:
    """Apply ``pipeline`` (names or callables) in order.

    ``None`` runs :data:`DEFAULT_PIPELINE`; an empty iterable disables
    rewriting entirely (the CI fusion smoke's control arm).
    """
    if pipeline is None:
        pipeline = DEFAULT_PIPELINE
    for entry in pipeline:
        if callable(entry):
            program = entry(program)
            continue
        fn = PASSES.get(entry)
        if fn is None:
            raise IRVerifyError(
                f"unknown IR pass {entry!r}; known: {sorted(PASSES)}"
            )
        program = fn(program)
    return program
