"""The typed offload IR: op vocabulary (ROADMAP item 5b).

Directives (``repro.lang``) are *syntax*; kernels (``repro.kernels``) are
*bodies*.  This module is the typed middle layer between them: a parsed
pragma plus its kernel lower (``repro.ir.lower``) into a small immutable
:class:`Program` of ops that the verifier checks, the rewrite passes
(``repro.ir.passes``) optimise, and the runtime executes
(:meth:`repro.runtime.runtime.HompRuntime.run_program`).

Vocabulary:

========== ==============================================================
DataDecl   one named host array: shape, dtype, bytes (geometry only)
MapOp      one ``map(dir: name partition(...) halo(lo,hi))``; what a
           chunk touches of the array is the kernel's
           :meth:`~repro.kernels.base.LoopKernel.input_region`
HaloOp     a boundary exchange derived from a partitioned map's halo;
           :meth:`HaloOp.legs` computes who sends which rows to whom
ReduceOp   the loop's reduction clause (op, variable)
OffloadOp  one offloadable loop: kernel + schedule + devices + maps
FusedOffloadOp
           a back-to-back run of compatible OffloadOps sharing a data
           environment (built by the fuse-adjacent-offloads pass)
StreamOp   ``batches`` repetitions of one template offload over evolving
           data (the ``stream(batches=N, window=W)`` clause); the
           stream-pipeline pass hoists the template's maps into a
           persistent ``region_maps`` data environment
Program    an ordered sequence of offloads over a set of declarations,
           plus optional program-scope ``region_maps`` (target data)
========== ==============================================================

Every op kind a :class:`Program` holds answers the same two questions:
``offloads`` — its member :class:`OffloadOp` nodes in execution order — and
``with_offloads(members)`` — itself rebuilt around rewritten members (the
*same object* when none changed).  Passes, the verifier and the listing
traverse programs through that protocol only.

Every node is a frozen dataclass: passes rewrite by building new nodes
(``dataclasses.replace``), never by mutation.  The only deliberately
non-value field is :attr:`OffloadOp.kernel` — the bound loop body, a live
:class:`~repro.kernels.base.LoopKernel` the runtime executes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dist.policy import Full, Policy
from repro.errors import IRVerifyError
from repro.memory.space import MapDirection
from repro.util.ranges import IterRange

__all__ = [
    "DataDecl",
    "MapOp",
    "HaloLeg",
    "HaloOp",
    "ReduceOp",
    "OffloadOp",
    "FusedOffloadOp",
    "StreamOp",
    "Program",
]

@dataclass(frozen=True)
class DataDecl:
    """Geometry of one named host array in the program's data environment."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    nbytes: int

    @property
    def rows(self) -> int:
        """Dim-0 extent (the residency ledger's charging axis)."""
        return int(self.shape[0]) if self.shape else 1

    @property
    def row_bytes(self) -> int:
        """Bytes per dim-0 index."""
        rows = self.rows
        return self.nbytes // rows if rows else 0


@dataclass(frozen=True)
class MapOp:
    """One mapped array: direction, per-dim policies, halo."""

    array: str
    direction: MapDirection
    policies: tuple[Policy, ...] = ()
    halo: tuple[int, int] = (0, 0)

    @property
    def partitioned(self) -> bool:
        return bool(self.policies) and not isinstance(self.policies[0], Full)

    @property
    def is_scalar(self) -> bool:
        return not self.policies


@dataclass(frozen=True)
class HaloLeg:
    """One directed boundary transfer: ``rows`` of the array, src -> dst."""

    src: int
    dst: int
    rows: IterRange


@dataclass(frozen=True)
class HaloOp:
    """A boundary exchange for one partitioned array.

    ``lower``/``upper`` are the halo widths below/above each device's
    share.  The op is purely symbolic until :meth:`legs` is given a
    concrete :class:`~repro.dist.distribution.DimDistribution`; the
    runtime's :func:`repro.runtime.halo.plan_halo_op` then prices the legs
    on a machine and routes them through the residency ledger.
    """

    array: str
    lower: int
    upper: int
    row_bytes: int = 0

    def __post_init__(self) -> None:
        if self.lower < 0 or self.upper < 0:
            raise IRVerifyError(
                f"halo widths must be >= 0, got ({self.lower}, {self.upper})"
            )

    @staticmethod
    def _span(dist, devid: int) -> IterRange:
        """Contiguous hull of a device's owned ranges (row-block dists)."""
        ranges = dist.device_ranges(devid)
        return IterRange(
            min(r.start for r in ranges), max(r.stop for r in ranges)
        )

    def legs(self, dist) -> tuple[HaloLeg, ...]:
        """Derive the exchange legs from the halo widths and owner spans.

        A device owning span ``s`` needs the footprint
        ``[s.start - lower, s.stop + upper)``; whatever falls outside its
        own span must arrive from the adjacent owner.  For each adjacent
        owner pair (a, b) that yields two legs: a sends b's lower-halo
        rows (``footprint(b) \\ span(b)`` below, intersected with a's
        span) and b sends a's upper-halo rows.  Devices owning nothing
        take no part.
        """
        owners = [d for d in range(dist.ndev) if dist.device_size(d) > 0]
        legs: list[HaloLeg] = []
        for a, b in zip(owners, owners[1:]):
            sa, sb = self._span(dist, a), self._span(dist, b)
            # b's lower halo: rows below its span, served from a's span.
            down = IterRange(sb.start - self.lower, sb.start).intersect(sa)
            # a's upper halo: rows above its span, served from b's span.
            up = IterRange(sa.stop, sa.stop + self.upper).intersect(sb)
            if not down.empty:
                legs.append(HaloLeg(src=a, dst=b, rows=down))
            if not up.empty:
                legs.append(HaloLeg(src=b, dst=a, rows=up))
        return tuple(legs)


def _names(maps: "tuple[MapOp, ...]") -> str:
    return ", ".join(sorted({m.array for m in maps}))


@dataclass(frozen=True)
class ReduceOp:
    """The loop's reduction: combining operator and directive variable."""

    op: str = "+"
    var: str | None = None


@dataclass(frozen=True)
class OffloadOp:
    """One offloadable parallel loop, fully resolved.

    ``kernel`` is the live loop body; everything else is the directive's
    contribution, normalised: the schedule (a policy or Table II
    notation), the device clause, the map set, and the ``partition(...)``
    overrides the runtime must apply to the kernel before execution (they
    outlive the call, as the directive path always has).
    """

    kernel: object
    label: str
    n_iters: int
    schedule: object = "AUTO"
    devices: str | None = None
    maps: tuple[MapOp, ...] = ()
    halos: tuple[HaloOp, ...] = ()
    reduce: ReduceOp | None = None
    collapse: int | None = None
    serialize_offload: bool = False
    partition_overrides: tuple[tuple[str, Policy], ...] = ()

    @property
    def map_names(self) -> tuple[str, ...]:
        return tuple(m.array for m in self.maps)

    @property
    def offloads(self) -> "tuple[OffloadOp, ...]":
        return (self,)

    def with_offloads(self, offloads: "tuple[OffloadOp, ...]") -> "OffloadOp":
        (only,) = offloads
        return only

    def _heading(self) -> str | None:
        return None


class _OffloadGroup:
    """What the op kinds wrapping member offloads share: the verifier
    makes the members agree on these, so the first one answers."""

    @property
    def devices(self) -> str | None:
        return self.offloads[0].devices

    @property
    def n_iters(self) -> int:
        return self.offloads[0].n_iters

    @property
    def serialize_offload(self) -> bool:
        return self.offloads[0].serialize_offload


@dataclass(frozen=True)
class FusedOffloadOp(_OffloadGroup):
    """Compatible back-to-back offloads sharing one data environment.

    Built by the ``fuse-adjacent-offloads`` pass; ``region_maps`` is the
    merged environment (direction-unioned, policy-reconciled) the runtime
    opens as a target-data region so the residency ledger elides the
    members' intermediate traffic.
    """

    members: tuple[OffloadOp, ...]
    region_maps: tuple[MapOp, ...]

    @property
    def offloads(self) -> tuple[OffloadOp, ...]:
        return self.members

    def with_offloads(self, offloads: tuple[OffloadOp, ...]) -> "FusedOffloadOp":
        offloads = tuple(offloads)
        if [id(m) for m in offloads] == [id(m) for m in self.members]:
            return self
        return replace(self, members=offloads)

    def _heading(self) -> str:
        return f"fused group over {{{_names(self.region_maps)}}}"


@dataclass(frozen=True)
class StreamOp(_OffloadGroup):
    """One template offload executed ``batches`` times over evolving data.

    Lowered from the ``stream(batches=N, window=W)`` clause (HSTREAM
    direction).  ``window`` is the number of dim-0 rows the stream source
    refreshes between batches: steady-state batches re-stage only that
    sliding-window delta once the ``stream-pipeline`` pass has hoisted
    the per-batch maps into the persistent ``region_maps`` environment
    the runtime opens across the whole batch sequence.
    """

    template: OffloadOp
    batches: int
    window: int = 0
    region_maps: tuple[MapOp, ...] = ()

    @property
    def offloads(self) -> tuple[OffloadOp, ...]:
        return (self.template,)

    def with_offloads(self, offloads: tuple[OffloadOp, ...]) -> "StreamOp":
        (template,) = offloads
        return self if template is self.template else replace(self, template=template)

    def _heading(self) -> str:
        return (
            f"stream batches={self.batches} window={self.window} "
            f"region={{{_names(self.region_maps)}}}"
        )

    @property
    def map_names(self) -> tuple[str, ...]:
        return self.template.map_names


@dataclass(frozen=True)
class Program:
    """A lowered directive sequence: declarations + offloads in order.

    ``region_maps`` is non-empty only for ``target data`` programs — the
    program-scope data environment a
    :class:`~repro.runtime.data_env.TargetDataRegion` is built from.
    """

    decls: tuple[DataDecl, ...] = ()
    region_maps: tuple[MapOp, ...] = ()
    #: Device clause of the ``target data`` directive a region program
    #: was lowered from (None = all devices).
    region_devices: str | None = None
    ops: tuple["OffloadOp | FusedOffloadOp | StreamOp", ...] = ()
    #: Original directive texts, for provenance/debugging only.
    source: tuple[str, ...] = ()

    def decl(self, name: str) -> DataDecl:
        for d in self.decls:
            if d.name == name:
                return d
        raise IRVerifyError(f"no declaration for array {name!r}")

    @property
    def offloads(self) -> tuple[OffloadOp, ...]:
        """All member offloads in execution order (fused groups flattened)."""
        return tuple(m for op in self.ops for m in op.offloads)

    def describe(self) -> str:
        """Human-readable program listing (examples print this)."""
        lines = [f"program ({len(self.decls)} decls, {len(self.ops)} ops)"]
        for d in self.decls:
            lines.append(f"  decl {d.name}: {list(d.shape)} {d.dtype}")
        for m in self.region_maps:
            lines.append(
                f"  region map({m.direction.value}: {m.array} "
                f"partition[{', '.join(str(p) for p in m.policies)}])"
            )
        for op in self.ops:
            heading = op._heading()
            indent = "  "
            if heading:
                lines.append(f"  {heading}")
                indent = "    "
            for m in op.offloads:
                halos = "".join(
                    f" halo({h.lower},{h.upper}):{h.array}" for h in m.halos
                )
                lines.append(
                    f"{indent}offload {m.kernel.name}: {m.label}"
                    f"[0:{m.n_iters}) schedule={m.schedule}"
                    f" maps={{{', '.join(m.map_names)}}}{halos}"
                )
        return "\n".join(lines)
