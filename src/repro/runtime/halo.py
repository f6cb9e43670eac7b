"""Halo exchange across devices (paper Fig. 3's ``#pragma omp halo_exchange``).

With a row-block distribution, each device must refresh its boundary
rows from each neighbour every iteration.  Between discrete devices the
bytes travel device -> host -> device (two link crossings; the paper's
machine has no peer-to-peer path between its K80 cards and MICs);
host-shared devices — SHARED memory *and* UNIFIED memory, whose pages
the driver migrates on access rather than at exchange time — exchange
for free.  The numeric ground truth lives in host arrays, so only the
*cost* needs simulating — the plan records who sends what to whom and
the virtual time the exchange adds.

*Which* rows move is no longer decided here: the boundary legs are
derived by :meth:`repro.ir.ops.HaloOp.legs` from the halo widths and
owner spans (a device owning span ``s`` with halo ``(lo, hi)`` needs
``[s.start - lo, s.stop + hi)``; whatever falls outside its span arrives
from the adjacent owner).  This module is the IR op's runtime consumer:
it prices the legs on a machine and routes them through the residency
ledger.

When the enclosing target-data region's residency view is passed in
(``residency=``, with the op naming its ``array``), the plan consults the
ledger: boundary
rows already valid on the receiving device are elided (reported in
:attr:`HaloExchange.elided_bytes`), and the rows a transfer does deliver
are marked resident so the *next* exchange is free until someone writes
them (``note_write`` invalidation re-opens the bill).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dist.distribution import DimDistribution
from repro.errors import DistributionError
from repro.ir.ops import HaloOp
from repro.machine.spec import MachineSpec, MemoryKind
from repro.memory.residency import RegionResidency
from repro.util.ranges import IterRange

__all__ = ["HaloExchange", "plan_halo_op"]


@dataclass(frozen=True)
class _Transfer:
    src: int
    dst: int
    nbytes: int
    #: Boundary rows delivered to ``dst`` (None for width-only planning).
    rows: IterRange | None = None


@dataclass(frozen=True)
class HaloExchange:
    """A planned halo exchange and its simulated cost."""

    transfers: tuple[_Transfer, ...]
    time_s: float
    #: Bytes the residency ledger proved already valid on the receiver —
    #: boundary rows that did *not* need to move this exchange.
    elided_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.transfers)


def _crossing_time(spec, nbytes: int) -> float:
    """One link crossing for ``nbytes`` on ``spec``'s link.

    Host-shared endpoints are free: SHARED memory by construction, and
    UNIFIED memory because its pages migrate lazily at access time — that
    cost is the engine's unified-memory model, not the exchange's.
    """
    if spec.memory is not MemoryKind.DISCRETE:
        return 0.0
    return spec.link.transfer_time(nbytes)


def plan_halo_op(
    machine: MachineSpec,
    dist: DimDistribution,
    op: HaloOp,
    *,
    residency: RegionResidency | None = None,
) -> HaloExchange:
    """Price a symbolic :class:`~repro.ir.ops.HaloOp` on a machine.

    The op's :meth:`~repro.ir.ops.HaloOp.legs` decide *which* rows move
    between which adjacent owners; this function decides *what that
    costs*: per-device time is the serial sum of its link crossings
    (send up + send down + receive up + receive down) and the exchange
    completes when the slowest device is done, since all devices
    synchronise after it.

    With ``residency`` (a region's ledger view; device indices here are
    local positions in its device list) and a named ``op.array``, rows
    already valid on the receiver are elided and delivered rows are
    marked resident.
    """
    if dist.ndev != len(machine):
        raise DistributionError(
            f"distribution covers {dist.ndev} devices, machine has {len(machine)}"
        )
    track = (
        residency is not None
        and bool(op.array)
        and residency.ledger.known(op.array)
    )
    transfers: list[_Transfer] = []
    elided_bytes = 0
    if op.row_bytes > 0:
        for leg in op.legs(dist):
            src, dst, rows = leg.src, leg.dst, leg.rows
            if track:
                gid = residency.ids[dst]
                missing = residency.ledger.stage(gid, op.array, [rows], (gid,))
                elided_bytes += op.row_bytes * (len(rows) - missing)
                if missing == 0:
                    continue  # receiver already holds the rows
                nbytes = op.row_bytes * missing
            else:
                nbytes = op.row_bytes * len(rows)
            transfers.append(
                _Transfer(src=src, dst=dst, nbytes=nbytes, rows=rows)
            )

    per_device = [0.0] * dist.ndev
    for t in transfers:
        # device -> host on the source link, host -> device on the target.
        per_device[t.src] += _crossing_time(machine[t.src], t.nbytes)
        per_device[t.dst] += _crossing_time(machine[t.dst], t.nbytes)
    return HaloExchange(
        transfers=tuple(transfers),
        time_s=max(per_device, default=0.0),
        elided_bytes=elided_bytes,
    )

