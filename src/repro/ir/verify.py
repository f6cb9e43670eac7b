"""Structural verification of lowered offload programs.

``verify_program`` is the gate between lowering and the pass pipeline
(and is re-run by the runtime on whatever the passes produce): a program
that passes is safe to execute.  Rules:

* the program is non-empty (at least one op or a program-scope map set);
* declarations are unique by name, with sane geometry;
* every map references a declared array, carries one policy per array
  dimension (scalars carry none) and a non-negative halo; a halo is only
  meaningful on a dim-0-partitioned map (a FULL map replicates the whole
  array — there is no boundary);
* offloads have a positive iteration space, a schedule that is a policy
  or a notation string, and a ``reduce`` op exactly when the kernel is a
  reduction; two kernels mapping the same name must bind the same host
  array (the data environment is keyed by name);
* fused groups have >= 2 members agreeing on iteration count, device
  clause and serialization, sharing at least one array; streams have
  ``batches >= 1`` and ``window >= 0``;
* whatever the op kind, every member offload (``op.offloads``) passes the
  offload rules, and an op's ``region_maps`` (always for a fused group,
  once hoisted for a stream) cover every member map.

Violations raise :class:`~repro.errors.IRVerifyError` naming the op.
"""

from __future__ import annotations

from repro.dist.policy import Policy
from repro.errors import IRVerifyError
from repro.ir.ops import (
    DataDecl,
    FusedOffloadOp,
    MapOp,
    OffloadOp,
    Program,
    StreamOp,
)

__all__ = ["verify_program"]


def _check_map(m: MapOp, decls: dict[str, DataDecl], where: str) -> None:
    decl = decls.get(m.array)
    if decl is None:
        raise IRVerifyError(f"{where}: map references undeclared array {m.array!r}")
    if m.policies and len(m.policies) != len(decl.shape):
        raise IRVerifyError(
            f"{where}: map {m.array!r} has {len(m.policies)} policies for a "
            f"rank-{len(decl.shape)} array"
        )
    if m.halo[0] < 0 or m.halo[1] < 0:
        raise IRVerifyError(f"{where}: map {m.array!r} has a negative halo")
    if m.halo != (0, 0) and not m.partitioned:
        raise IRVerifyError(
            f"{where}: map {m.array!r} declares a halo but is not "
            "dim-0 partitioned (FULL maps have no boundary)"
        )


def _check_offload(
    op: OffloadOp, decls: dict[str, DataDecl], arrays_seen: dict[str, object]
) -> None:
    where = f"offload {getattr(op.kernel, 'name', '?')!r}"
    if op.n_iters <= 0:
        raise IRVerifyError(f"{where}: empty iteration space")
    if not isinstance(op.schedule, (Policy, str)) and not hasattr(
        op.schedule, "notation"
    ):
        raise IRVerifyError(
            f"{where}: schedule {op.schedule!r} is neither a policy, a "
            "notation string nor a scheduler"
        )
    kernel = op.kernel
    is_reduction = bool(getattr(kernel, "is_reduction", False))
    if is_reduction and op.reduce is None:
        raise IRVerifyError(f"{where}: reduction kernel lowered without a ReduceOp")
    if not is_reduction and op.reduce is not None:
        raise IRVerifyError(f"{where}: ReduceOp on a non-reduction kernel")
    for m in op.maps:
        _check_map(m, decls, where)
        host = getattr(kernel, "arrays", {}).get(m.array)
        if host is not None:
            prior = arrays_seen.setdefault(m.array, host)
            if prior is not host:
                raise IRVerifyError(
                    f"{where}: array {m.array!r} is bound to a different "
                    "host array than an earlier offload (the data "
                    "environment is keyed by name)"
                )
    for h in op.halos:
        if h.array not in decls:
            raise IRVerifyError(f"{where}: halo for undeclared array {h.array!r}")
        if not any(m.array == h.array and m.partitioned for m in op.maps):
            raise IRVerifyError(
                f"{where}: halo for {h.array!r}, which no partitioned map covers"
            )


def _check_members(
    op,
    decls: dict[str, DataDecl],
    arrays_seen: dict[str, object],
    region: str | None = None,
    noun: str = "member",
) -> None:
    """The rules every op kind shares, through the op-member protocol:
    each member is a valid offload, and ``region`` — how errors name the
    op's ``region_maps``, None when it has none to check — covers every
    member map."""
    for member in op.offloads:
        _check_offload(member, decls, arrays_seen)
    if region is None:
        return
    mapped = {name for member in op.offloads for name in member.map_names}
    missing = sorted(mapped - {m.array for m in op.region_maps})
    if missing:
        raise IRVerifyError(f"{region} maps miss {noun} arrays {missing}")
    for m in op.region_maps:
        _check_map(m, decls, region)


def _check_fused(
    op: FusedOffloadOp, decls: dict[str, DataDecl], arrays_seen: dict[str, object]
) -> None:
    if len(op.members) < 2:
        raise IRVerifyError("fused group needs >= 2 member offloads")
    head = op.members[0]
    shared = set(head.map_names)
    for member in op.members:
        if member.n_iters != head.n_iters:
            raise IRVerifyError("fused members disagree on iteration count")
        if member.devices != head.devices:
            raise IRVerifyError("fused members disagree on device clause")
        if member.serialize_offload != head.serialize_offload:
            raise IRVerifyError("fused members disagree on serialization")
        shared &= set(member.map_names)
    if not shared:
        raise IRVerifyError("fused members share no array")
    _check_members(op, decls, arrays_seen, "fused region")


def _check_stream(
    op: StreamOp, decls: dict[str, DataDecl], arrays_seen: dict[str, object]
) -> None:
    where = f"stream {getattr(op.template.kernel, 'name', '?')!r}"
    if op.batches < 1:
        raise IRVerifyError(f"{where}: batches must be >= 1, got {op.batches}")
    if op.window < 0:
        raise IRVerifyError(f"{where}: window must be >= 0, got {op.window}")
    # Until stream-pipeline hoists a region there is nothing to cover.
    region = f"{where} region" if op.region_maps else None
    _check_members(op, decls, arrays_seen, region, "template")


def verify_program(program: Program) -> Program:
    """Check ``program``; returns it unchanged so calls compose."""
    if not program.ops and not program.region_maps:
        raise IRVerifyError("empty program: no offloads and no region maps")
    decls: dict[str, DataDecl] = {}
    for d in program.decls:
        if d.name in decls:
            raise IRVerifyError(f"duplicate declaration of array {d.name!r}")
        if any(extent < 0 for extent in d.shape) or d.nbytes < 0:
            raise IRVerifyError(f"declaration {d.name!r} has negative geometry")
        decls[d.name] = d
    for m in program.region_maps:
        _check_map(m, decls, "region")
    arrays_seen: dict[str, object] = {}
    for op in program.ops:
        if isinstance(op, FusedOffloadOp):
            _check_fused(op, decls, arrays_seen)
        elif isinstance(op, StreamOp):
            _check_stream(op, decls, arrays_seen)
        else:
            _check_members(op, decls, arrays_seen)
    return program
