"""Residency ledger and data-placement plans (paper §III / Fig. 3).

The paper's ``parallel target data`` regions keep *ranges* of arrays
resident on each device: FULL maps replicate, BLOCK/ALIGN maps place one
owner range per device, and later offloads only pay the bus for data a
chunk touches that is **not** already there.  This module makes that an
explicit subsystem:

* :class:`ResidencyLedger` — per-(device, array) reference-counted mapped
  row ranges (like the real runtime's refcounted target-data buffers)
  plus, per array, a *holder map*: sorted breakpoints from row 0 to the
  array's rows and, for each segment between two of them, the bitmask of
  the devices whose copy of it is currently *valid* (bit ``d`` = device
  ``d``; neighbouring segments never share a mask).  Nested regions
  retain the same ranges again; a range is unmapped (and eligible for
  copy-out) only when its refcount drops to zero.
* :class:`DataPlacementPlan` — one :class:`~repro.dist.DimDistribution`
  per array, which a region derives from its :mod:`repro.dist` policies
  through the ALIGN resolver: FULL replicates, BLOCK splits,
  ALIGN follows its root alignee (scaled by the composed ratio), AUTO
  follows the loop distribution's shape (BLOCK at plan time).
* :class:`RegionResidency` — a view binding the runtime's ledger to one
  offload's device selection; the execution core charges each chunk the
  *delta* between what it touches and what is resident, schedulers read
  plan-aware data-cost terms from it, and device dropout invalidates the
  lost device's entries through it.

Validity semantics: entry marks planned ranges valid for ``to``/``tofrom``
maps only (``alloc``/``from`` storage exists but holds no data yet); a
kernel write marks the writer's rows valid and invalidates every other
device's copy of those rows; a halo exchange re-validates boundary rows on
the neighbour.  All row arithmetic is clamped to the array's registered
extent.

Everything here is deterministic and free of wall-clock state.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_, ne, or_, sub
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.dist.align import AlignmentGraph
from repro.dist.distribution import DimDistribution
from repro.dist.policy import Align, Block, Policy
from repro.errors import AlignmentError, MappingError
from repro.util.ranges import IterRange

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.base import LoopKernel

__all__ = [
    "ResidencyLedger",
    "DataPlacementPlan",
    "RegionResidency",
    "ClusterResidency",
]


# ---------------------------------------------------------------------------
# Interval arithmetic over half-open (start, stop) spans
# ---------------------------------------------------------------------------

_Span = tuple[int, int]


def _merge(spans: Iterable[_Span]) -> list[_Span]:
    """Sorted union of spans, empty ones dropped, adjacents coalesced."""
    out: list[_Span] = []
    for s, e in sorted(spans):
        if s >= e:
            continue
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return out


# Per-node validity of :class:`ClusterResidency`: node -> sorted, disjoint,
# coalesced, never-empty span list, edited over merged spans.
_Index = dict[int, list[_Span]]


def _first(valid: list[_Span], s: int) -> int:
    """Index of the first span of ``valid`` that ends after ``s``."""
    i = bisect_left(valid, (s,))
    return i - 1 if i and valid[i - 1][1] > s else i


def _add(by_dev: _Index, dev: int, spans: list[_Span]) -> None:
    """Union ``spans`` into ``dev``'s list in place; what a span overlaps or
    touches is coalesced with it, exactly as :func:`_merge` would."""
    valid = by_dev.setdefault(dev, [])
    for s, e in spans:
        i = j = _first(valid, s - 1)
        while j < len(valid) and valid[j][0] <= e:
            j += 1
        if i < j:
            s, e = min(s, valid[i][0]), max(e, valid[j - 1][1])
        valid[i:j] = [(s, e)]


def _remove(by_dev: _Index, devs: Iterable[int], spans: list[_Span]) -> None:
    """Cut ``spans`` out of the lists of ``devs`` in place; a list that
    empties drops its key."""
    for dev in devs:
        valid = by_dev.get(dev)
        if valid:
            for s, e in spans:
                i = j = _first(valid, s)
                while j < len(valid) and valid[j][0] < e:
                    j += 1
                if i < j:
                    ends = ((valid[i][0], s), (e, valid[j - 1][1]))
                    valid[i:j] = [(a, b) for a, b in ends if a < b]
            if not valid:
                del by_dev[dev]


def _gaps(by_dev: _Index, devs: Iterable[int], want: list[_Span]) -> list[_Span]:
    """The parts of ``want`` that are valid on none of ``devs``."""
    for dev in devs:
        valid = by_dev.get(dev)
        if valid and want:
            rest: list[_Span] = []
            for s, e in want:
                i = _first(valid, s)
                while i < len(valid) and valid[i][0] < e:
                    if valid[i][0] > s:
                        rest.append((s, valid[i][0]))
                    s = valid[i][1]
                    i += 1
                if s < e:
                    rest.append((s, e))
            want = rest
    return want


# One array's holder map ``(at, masks)``: segment ``i`` is rows ``[at[i],
# at[i + 1])``.  An edit or a gap count is one bisection plus the segments
# it touches, whatever the number of devices.
_Holders = tuple[list[int], list[int]]


def _bits(devs: Iterable[int]) -> int:
    return sum({1 << d for d in devs})


def _missing(h: _Holders, holders: int, s: int, e: int) -> int:
    """Rows of ``[s, e)`` that no device of the mask ``holders`` holds."""
    at, masks = h
    i = bisect_right(at, s) - 1
    miss = 0
    while at[i] < e:
        if not masks[i] & holders:
            a, b = at[i], at[i + 1]
            miss += (b if b < e else e) - (a if a > s else s)
        i += 1
    return miss


def _paint(h: _Holders, s: int, e: int, add: int, drop: int) -> None:
    """Set the bits of ``add`` or clear those of ``drop`` over rows ``[s,
    e)`` (within the extent); ``drop=-1`` makes ``add`` the sole holder."""
    at, masks = h
    i = bisect_left(at, s)
    if at[i] != s:
        at.insert(i, s)
        masks.insert(i, masks[i - 1])
    j = bisect_left(at, e, i)
    if at[j] != e:
        at.insert(j, e)
        masks.insert(j, masks[j - 1])
    if drop == -1:
        masks[i:j] = [add]
        del at[i + 1:j]
        j = i + 1
    elif j == i + 1:
        masks[i] = masks[i] & ~drop | add
    else:  # a wide edit (a release, a window refresh): each step in C
        masks[i:j] = map(and_, masks[i:j], repeat(~drop)) if drop else map(
            or_, masks[i:j], repeat(add)
        )
        lo, hi = (i or 1) - 1, min(j + 1, len(masks))
        keep = [True, *map(ne, masks[lo + 1:hi], masks[lo:hi])]
        masks[lo:hi] = compress(masks[lo:hi], keep)
        at[lo:hi] = compress(at[lo:hi], keep)
        return
    k = j - (j == len(masks))
    while k >= (i or 1):  # merge equal neighbours, right to left
        if masks[k] == masks[k - 1]:
            del at[k], masks[k]
        k -= 1


def _count(spans: list[_Span]) -> int:
    return sum(e - s for s, e in spans)


_Seg = tuple[int, int, int]  # (start, stop, refs)


def _overlay(
    segs: list[_Seg], spans: list[_Span], delta: int
) -> tuple[list[_Seg], list[_Span]]:
    """Add ``delta`` references over ``spans`` of a disjoint segment list.

    Returns the new segment list and the spans whose refcount reached
    zero (always empty for ``delta > 0``).  Releasing rows that were
    never retained is a ledger invariant violation and raises.
    """
    bounds = sorted(
        {p for s, e, _ in segs for p in (s, e)}
        | {p for s, e in spans for p in (s, e)}
    )
    new: list[list[int]] = []
    dropped: list[_Span] = []
    for lo, hi in zip(bounds, bounds[1:]):
        refs = 0
        for s, e, r in segs:
            if s <= lo and hi <= e:
                refs = r
                break
        inside = any(s <= lo and hi <= e for s, e in spans)
        nr = refs + delta if inside else refs
        if nr < 0:
            raise MappingError(
                f"residency ledger: rows [{lo},{hi}) released more times "
                "than they were retained"
            )
        if inside and refs > 0 and nr == 0:
            dropped.append((lo, hi))
        if nr > 0:
            if new and new[-1][1] == lo and new[-1][2] == nr:
                new[-1][1] = hi
            else:
                new.append([lo, hi, nr])
    return [(s, e, r) for s, e, r in new], _merge(dropped)


def _ranges(spans: list[_Span]) -> list[IterRange]:
    return [IterRange(s, e) for s, e in spans]


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------

class ResidencyLedger:
    """Which rows of which named arrays live (and are valid) on which device.

    Keys are array *names* — the same identity target-data maps and kernel
    maps use — and global device ids.  Mapped ranges are reference-counted
    so nested regions compose like real target-data regions: the inner
    region's entry of an already-mapped range moves nothing, and only the
    release that drops a range to zero references unmaps it (making it the
    copy-out candidate).  Thread-safe: one re-entrant lock guards every
    mutation.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._rows: dict[str, int] = {}
        self._row_bytes: dict[str, int] = {}
        # Both created by ``register``, dropped with the array's geometry.
        self._refs: dict[str, dict[int, list[_Seg]]] = {}
        self._valid: dict[str, _Holders] = {}

    # -- geometry ------------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when no array is mapped anywhere (all regions drained)."""
        return not self._rows

    def known(self, name: str) -> bool:
        """Is ``name`` currently mapped (by any open region)?"""
        return name in self._rows

    def rows_of(self, name: str) -> int:
        return self._rows[name]

    def row_bytes(self, name: str) -> int:
        return self._row_bytes[name]

    def register(self, name: str, rows: int, row_bytes: int) -> None:
        """Declare an array's dim-0 extent and bytes per row.

        Idempotent for matching geometry; a second region mapping the same
        name with a different shape is a mapping conflict.
        """
        with self._lock:
            if name in self._rows:
                if (rows, row_bytes) != (self._rows[name], self._row_bytes[name]):
                    raise MappingError(
                        f"array {name!r} is already mapped with "
                        f"{self._rows[name]} rows x {self._row_bytes[name]} B, "
                        f"cannot remap as {rows} rows x {row_bytes} B"
                    )
                return
            self._rows[name] = int(rows)
            self._row_bytes[name] = int(row_bytes)
            self._refs[name] = {}
            self._valid[name] = ([0, int(rows)], [0])

    def _clamped(self, name: str, ranges: Iterable[IterRange]) -> list[_Span]:
        rows = self._rows[name]
        return _merge([(max(0, r.start), min(rows, r.stop)) for r in ranges])

    # -- reference counting --------------------------------------------------

    def retain(self, dev: int, name: str, ranges: Iterable[IterRange]) -> None:
        """Add one mapping reference over ``ranges`` on ``dev``."""
        with self._lock:
            spans = self._clamped(name, ranges)
            if not spans:
                return
            refs = self._refs[name]
            refs[dev], _ = _overlay(refs.get(dev, []), spans, +1)

    def release(
        self, dev: int, name: str, ranges: Iterable[IterRange]
    ) -> tuple[list[IterRange], int]:
        """Drop one mapping reference over ``ranges`` on ``dev``.

        Returns ``(unmapped, valid_rows)``: the ranges whose refcount
        reached zero (the device buffer is gone for them) and how many of
        those rows held valid data — the copy-out candidates.  When the
        device's last reference for ``name`` goes, all its validity state
        for the array goes with it; when the array's last reference across
        *all* devices goes, its geometry is forgotten too.
        """
        with self._lock:
            if name not in self._rows:
                return [], 0
            refs, h, bit = self._refs[name], self._valid[name], 1 << dev
            spans = self._clamped(name, ranges)
            new, unmapped = _overlay(refs.get(dev, []), spans, -1)
            n_valid = sum(e - s - _missing(h, bit, s, e) for s, e in unmapped)
            if new:
                refs[dev] = new
                for s, e in unmapped:
                    _paint(h, s, e, 0, bit)
            else:  # the device's last reference: all its validity goes
                refs.pop(dev, None)
                self._forget(dev, name)
            if not refs:
                for table in (self._rows, self._row_bytes, self._refs, self._valid):
                    del table[name]
            return _ranges(unmapped), n_valid

    def retained(self, dev: int, name: str) -> list[IterRange]:
        """Ranges currently mapped (refcount > 0) on ``dev``."""
        with self._lock:
            segs = self._refs.get(name, {}).get(dev, [])
            return _ranges(_merge((s, e) for s, e, _ in segs))

    # -- validity ------------------------------------------------------------

    def mark_valid(self, dev: int, name: str, ranges: Iterable[IterRange]) -> None:
        """The device's copy of ``ranges`` now holds the data."""
        with self._lock:
            for s, e in self._clamped(name, ranges):
                _paint(self._valid[name], s, e, 1 << dev, 0)

    def invalidate(
        self, devs: Iterable[int], name: str, ranges: Iterable[IterRange]
    ) -> None:
        """The copies of ``ranges`` on ``devs`` are stale (or never arrived)."""
        with self._lock:
            if name in self._rows:
                drop = _bits(devs)
                for s, e in self._clamped(name, ranges):
                    _paint(self._valid[name], s, e, 0, drop)

    def note_write(self, dev: int, name: str, rows: IterRange) -> None:
        """``dev`` wrote ``rows``: its copy becomes the valid one and every
        other device's copy of those rows goes stale."""
        with self._lock:
            s, e = max(rows.start, 0), min(rows.stop, self._rows[name])
            if s < e:
                _paint(self._valid[name], s, e, 1 << dev, -1)

    def _forget(self, dev: int, name: str) -> int:
        """Drop ``dev``'s copy of all of ``name``; return the rows it held."""
        at, masks = h = self._valid[name]
        held = sum(compress(map(sub, at[1:], at), map(and_, masks, repeat(1 << dev))))
        _paint(h, 0, self._rows[name], 0, 1 << dev)
        return held

    def invalidate_device(self, dev: int) -> int:
        """Drop all validity on ``dev`` (dropout: contents are lost; the
        mappings themselves survive until their regions release them).
        Returns the number of rows invalidated."""
        with self._lock:
            return sum(self._forget(dev, name) for name in self._rows)

    def missing_everywhere(
        self, devs: Iterable[int], name: str, ranges: Iterable[IterRange]
    ) -> int:
        """Rows of ``ranges`` valid on *none* of ``devs`` — the rows whose
        staged copy is gone everywhere (never staged, or lost with a
        dropped device) and must cross the bus again.  Rows valid on any
        sibling are refreshed host-mediated within the region, for free."""
        with self._lock:
            if name not in self._rows:
                return 0
            holders = _bits(devs)
            return sum(
                _missing(self._valid[name], holders, s, e)
                for s, e in self._clamped(name, ranges)
            )

    def stage(
        self,
        dev: int,
        name: str,
        ranges: Iterable[IterRange],
        holders: Iterable[int],
    ) -> int:
        """Stage ``ranges`` onto ``dev`` and return the rows to charge for.

        The one stage-and-charge primitive: counts the rows valid on none
        of ``holders`` (see :meth:`missing_everywhere`), then marks
        ``ranges`` valid on ``dev`` — atomically, under one acquisition of
        the ledger lock.  ``holders`` is the caller's notion of who can
        supply the rows for free: ``(dev,)`` alone for region entry and
        halo delivery, the whole region's devices for a chunk.  An
        unmapped ``name`` stages nothing and charges nothing.
        """
        with self._lock:
            if name not in self._rows:
                return 0
            ranges = tuple(ranges)  # read twice
            missing = self.missing_everywhere(holders, name, ranges)
            self.mark_valid(dev, name, ranges)
            return missing


# ---------------------------------------------------------------------------
# Placement plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataPlacementPlan:
    """The dim-0 distribution of every array of one target-data region.

    Derived once at region entry from the region's :mod:`repro.dist`
    policies (paper Table I) through the one ALIGN resolver,
    :class:`~repro.dist.align.AlignmentGraph`: FULL replicates the whole
    extent on every device, BLOCK splits it, and ALIGN takes its
    *root* alignee's placement scaled by the composed chain ratio and
    clamped to the array's own extent.  Three cases have no static
    answer and take the BLOCK shape the runtime's schedulers converge to:
    AUTO (the loop split is only decided at offload time), an ALIGN whose
    target is not an entry (a loop label), and an ALIGN chain that cycles.
    """

    ndev: int
    placements: Mapping[str, DimDistribution]

    def ranges(self, name: str, dev: int) -> tuple[IterRange, ...]:
        """Owner ranges of ``name`` on local device index ``dev``."""
        return tuple(
            r for r in self.placements[name].device_ranges(dev) if not r.empty
        )

    def placed_rows(self, name: str, dev: int) -> int:
        return self.placements[name].device_size(dev)

    @classmethod
    def derive(
        cls, entries: Mapping[str, tuple[int, Policy]], ndev: int
    ) -> "DataPlacementPlan":
        """Build the plan for ``entries`` (name -> (dim-0 rows, policy))."""
        if ndev <= 0:
            raise MappingError(f"placement plan needs ndev > 0, got {ndev}")

        def static(rows: int, policy: Policy) -> DimDistribution:
            return DimDistribution.from_policy(policy, IterRange(0, rows), ndev)

        graph = AlignmentGraph()
        for name, (rows, policy) in entries.items():
            if (
                isinstance(policy, Align)
                and policy.target in entries
                and policy.target != name
            ):
                graph.add_align(name, policy)
            else:  # AUTO and ALIGN(loop label) have no static split: BLOCK
                graph.add_concrete(
                    name, static(rows, Block() if policy.needs_runtime else policy)
                )
        placements: dict[str, DimDistribution] = {}
        for name, (rows, _policy) in entries.items():
            try:
                placements[name] = graph.resolve(name, extent=IterRange(0, rows))
            except AlignmentError:  # the chain cycles: BLOCK as well
                placements[name] = static(rows, Block())
        return cls(ndev=ndev, placements=placements)


# ---------------------------------------------------------------------------
# The per-offload view
# ---------------------------------------------------------------------------

class RegionResidency:
    """A ledger bound to one offload's device selection.

    The execution core, the scheduler context and the halo planner all
    address devices by *local* index (position in the offload's device
    list); the ledger speaks global device ids.  This view translates and
    packages the three questions the data path asks:

    * what does this chunk cost, given what is already resident
      (:meth:`charge_chunk`)?
    * what are a device's steady-state per-iteration / fixed data costs
      (:meth:`per_iter_xfer_bytes`, :meth:`replicated_in_bytes`)?
    * a device died — forget everything it held (:meth:`device_lost`).
    """

    __slots__ = ("ledger", "ids", "_mask", "_resolved")

    def __init__(self, ledger: ResidencyLedger, device_ids: Iterable[int]):
        self.ledger = ledger
        self.ids = tuple(device_ids)
        self._mask = _bits(self.ids)  # the region's devices as holders
        self._resolved: tuple | None = None  # (kernel, its footprint rows)

    # -- engine-core charging ------------------------------------------------

    def _footprint(self, kernel: "LoopKernel") -> tuple:
        """``kernel``'s maps as :meth:`charge_chunk` reads them, resolved once
        per view (it serves one offload or stream; neither the maps nor
        what is mapped change under it).  ``extent`` is the dim-0 range a
        partitioned map's halo is clamped to, or a FULL map's whole range;
        ``rows`` the ledger's extent."""
        if self._resolved is None or self._resolved[0] is not kernel:
            led = self.ledger
            self._resolved = (kernel, tuple(
                (
                    m.name, known, m.partitioned,
                    m.direction.copies_in, m.direction.copies_out,
                    led.row_bytes(m.name) if known else kernel.row_nbytes(m.name),
                    m.halo,
                    IterRange(0, (
                        led.rows_of(m.name) if known and not m.partitioned
                        else len(kernel.arrays[m.name])
                    )),
                    led.rows_of(m.name) if known else 0,
                )
                for m in kernel.effective_maps()
                for known in (led.known(m.name),)
            ))
        return self._resolved[1]

    def charge_chunk(
        self,
        local_dev: int,
        kernel: "LoopKernel",
        chunk: IterRange,
        *,
        first_chunk: bool,
    ) -> tuple[float, float, float, float]:
        """Bytes one chunk moves and elides on ``local_dev``.

        Returns ``(bytes_in, bytes_out, elided_in, elided_out)``.  For
        ledger-known arrays the inbound charge is the halo-expanded rows
        the chunk reads minus what is valid on *any* region device — the
        region's host image mediates sibling refreshes for free (the same
        abstraction the explicit halo-exchange cost sits on top of), so a
        chunk pays only for rows that were never staged (reading an
        ALLOC/FROM array before any write) or whose only valid copy died
        with a dropout; read rows are then recorded as the reader's valid
        copy so a retry or re-adoption stays free; rows already valid on
        the chunk's own device cost one bisection.  Outbound rows stay on
        the device until the region drains: elided, and recorded as the
        writer's exclusive copy (``note_write`` stales the siblings, which
        is what halo planning measures).  Arrays the ledger does not know
        follow the flat per-chunk model (full rows in, full rows out),
        matching the pre-ledger engine bit for bit.  The whole charge holds
        the ledger lock once: proxies never interleave inside one chunk.
        """
        led = self.ledger
        ids = self.ids
        dev = ids[local_dev]
        bit = 1 << dev
        n = chunk.stop - chunk.start
        bytes_in = bytes_out = 0.0
        elided_in = elided_out = 0.0
        res = self._resolved
        with led._lock:
            for (
                name, known, partitioned, copies_in, copies_out,
                row_b, halo, extent, rows,
            ) in res[1] if res and res[0] is kernel else self._footprint(kernel):
                if partitioned:
                    if not known:
                        if copies_in:
                            bytes_in += row_b * n
                        if copies_out:
                            bytes_out += row_b * n
                        continue
                    if copies_in:
                        # ``chunk.expand(*halo, clamp=extent)``, unbuilt, then
                        # staged as ``stage`` would: clamped to the ledger's
                        # rows, asking the chunk's own device first.
                        s, e = chunk.start - halo[0], chunk.stop + halo[1]
                        s, e = (s if s > 0 else 0), min(e, extent.stop)
                        read = e - s if e > s else 0
                        e = min(e, rows)
                        miss = 0
                        if e > s:
                            h = at, masks = led._valid[name]
                            i = bisect_right(at, s) - 1
                            while masks[i] & bit and at[i + 1] < e:
                                i += 1
                            if not masks[i] & bit:  # not all held already
                                miss = _missing(h, self._mask, s, e)
                                if not copies_out or s < chunk.start or e > chunk.stop:
                                    _paint(h, s, e, bit, 0)  # else the write below
                        bytes_in += row_b * miss
                        elided_in += row_b * (read - miss)
                    if copies_out:
                        elided_out += row_b * n
                else:  # FULL map: inbound replica on first chunk only
                    if copies_in and first_chunk:
                        miss = (
                            led.stage(dev, name, (extent,), ids) if known
                            else len(extent)  # unmapped: the whole replica
                        )
                        bytes_in += row_b * miss
                        elided_in += row_b * (len(extent) - miss)
                if known and copies_out:
                    led.note_write(dev, name, chunk)
        return bytes_in, bytes_out, elided_in, elided_out

    def forget_chunk(
        self, local_dev: int, kernel: "LoopKernel", chunk: IterRange
    ) -> None:
        """A charged chunk never completed (transfer retries exhausted):
        conservatively drop the validity its charge recorded."""
        led = self.ledger
        dev = self.ids[local_dev]
        for m in kernel.effective_maps():
            if m.partitioned and led.known(m.name):
                region0 = kernel.input_region(m, chunk)[0]
                led.invalidate((dev,), m.name, [region0])

    def device_lost(self, local_dev: int) -> int:
        """Dropout: everything the device held is gone; reassigned chunks
        will re-pay their transfers.  Returns rows invalidated."""
        return self.ledger.invalidate_device(self.ids[local_dev])

    # -- scheduler data-cost terms (Table III DataT / fixed costs) -----------

    def per_iter_xfer_bytes(self, local_dev: int, kernel: "LoopKernel") -> float:
        """Steady-state bus bytes per iteration the model should assume.

        Ledger-known partitioned arrays charge only the fraction of the
        device's mapped ranges valid *nowhere* in the region (zero on an
        intact placement, the full rate again after a dropout took the
        only copy); unknown arrays charge the flat per-row rate, exactly
        like the plain ``kernel.xfer_elems_per_iter()`` model.
        """
        led = self.ledger
        dev = self.ids[local_dev]
        total = 0.0
        for m in kernel.effective_maps():
            if not m.partitioned:
                continue
            name = m.name
            if led.known(name):
                if not m.direction.copies_in:
                    continue  # outbound rows stay resident until region exit
                held = led.retained(dev, name)
                n_held = sum(len(r) for r in held)
                if n_held == 0:
                    frac = 1.0  # nothing placed here: every row is foreign
                else:
                    frac = led.missing_everywhere(self.ids, name, held) / n_held
                total += led.row_bytes(name) * frac
            else:
                row_b = kernel.row_nbytes(name)
                if m.direction.copies_in:
                    total += row_b
                if m.direction.copies_out:
                    total += row_b
        return total

    def replicated_in_bytes(self, local_dev: int, kernel: "LoopKernel") -> float:
        """One-off broadcast bytes for FULL-mapped inputs on this device."""
        led = self.ledger
        total = 0.0
        for m in kernel.effective_maps():
            if not m.replicated or not m.direction.copies_in:
                continue
            name = m.name
            if led.known(name):
                whole = IterRange(0, led.rows_of(name))
                total += led.row_bytes(name) * led.missing_everywhere(
                    self.ids, name, [whole]
                )
            else:
                total += kernel.arrays[name].nbytes
        return total


# ---------------------------------------------------------------------------
# Node-granular residency (repro.cluster)
# ---------------------------------------------------------------------------

class ClusterResidency:
    """The ledger's staging at *node* granularity: which rows already live
    on which node, and what a node's loop shard therefore costs in
    inter-node fabric bytes.  The unit is one node *shard* (intra-node
    transfers are priced by the node's own engine run), staged against its
    own node only and never released before the offload ends: one span
    list per node and array serves it, with no holder map, refcount or lock.

    Two placements, mirroring the paper's partition policies lifted one
    level up:

    * ``head`` (flat staging): all data starts on the head node; every
      other node stages its full shard inputs in and copies its outputs
      back — what a naive flat BLOCK over the whole cluster pays.
    * ``aligned``: partitioned arrays were pre-distributed to the shard
      owners (and FULL-mapped inputs broadcast) when the cluster data
      region opened; an offload then moves only rows a node reads but
      does not own — the cross-node *halo* — and outputs stay node-
      resident.  The pre-distribution itself is the one-time
      :meth:`scatter_bytes` cost, amortised across repeated offloads.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise MappingError(f"cluster residency needs n_nodes > 0, got {n_nodes}")
        self.n_nodes = n_nodes
        self.nodes = tuple(range(n_nodes))
        self._valid: dict[str, _Index] = {}
        self._rows: dict[str, int] = {}

    # -- region setup ---------------------------------------------------------

    def register_kernel(self, kernel: "LoopKernel") -> None:
        """Declare every mapped array's dim-0 extent."""
        for m in kernel.effective_maps():
            self._rows[m.name] = len(kernel.arrays[m.name])
            self._valid[m.name] = {}

    def _stage(self, node: int, name: str, rows: IterRange, *, write=False) -> int:
        """Mark ``rows`` (clamped to the extent) valid on ``node`` — its only
        valid copy if ``write`` — and return how many were not valid there."""
        valid = self._valid[name]
        want = _merge([(max(rows.start, 0), min(rows.stop, self._rows[name]))])
        if write:
            _remove(valid, self.nodes, want)
        missing = _count(_gaps(valid, (node,), want))
        _add(valid, node, want)
        return missing

    def place_aligned(
        self, kernel: "LoopKernel", shards: Iterable[IterRange]
    ) -> None:
        """Mark the aligned pre-distribution valid: each node owns its
        shard's rows of every partitioned array, FULL-mapped inputs are
        replicated everywhere."""
        shards = list(shards)
        for m in kernel.effective_maps():
            if m.partitioned:
                for node, shard in enumerate(shards):
                    self._stage(node, m.name, shard)
            elif m.direction.copies_in:
                for node in self.nodes:
                    self._stage(node, m.name, IterRange(0, self._rows[m.name]))

    def scatter_bytes(self, kernel: "LoopKernel", shards: Iterable[IterRange]) -> list[float]:
        """Per-node bytes the aligned pre-distribution itself moves: each
        node's owned shard rows of partitioned inputs plus a full replica
        of every FULL-mapped input (nothing for the head node, which
        already holds the host image)."""
        out: list[float] = []
        for node, shard in enumerate(shards):
            total = 0.0
            if node != 0:
                for m in kernel.effective_maps():
                    if not m.direction.copies_in:
                        continue
                    row_b = kernel.row_nbytes(m.name)
                    rows = self._rows[m.name]
                    if m.partitioned:
                        total += row_b * len(shard.intersect(IterRange(0, rows)))
                    else:
                        total += row_b * rows
            out.append(total)
        return out

    # -- per-shard fabric charging -------------------------------------------

    def charge_shard(
        self,
        node: int,
        kernel: "LoopKernel",
        shard: IterRange,
        *,
        collect_outputs: bool,
    ) -> tuple[float, float, float, float]:
        """Fabric bytes node ``node``'s shard moves and elides.

        Returns ``(bytes_in, bytes_out, elided_in, elided_out)`` exactly
        like :meth:`RegionResidency.charge_chunk`, but against the *node*
        spans: inbound pays the halo-expanded shard rows not valid on
        this node (everything under head placement, only the cross-node
        halo under aligned), outbound pays the shard's written rows when
        ``collect_outputs`` (head placement returns results to the head
        node) and stays node-resident otherwise.  Node 0 — the head — is
        the host image and never pays the fabric.
        """
        bytes_in = bytes_out = 0.0
        elided_in = elided_out = 0.0
        is_head = node == 0
        for m in kernel.effective_maps():
            name = m.name
            row_b = kernel.row_nbytes(name)
            if m.direction.copies_in:
                read = (
                    kernel.input_region(m, shard)[0] if m.partitioned
                    else IterRange(0, self._rows[name])
                )
                miss = self._stage(node, name, read)
                if is_head:
                    elided_in += row_b * len(read)
                else:
                    bytes_in += row_b * miss
                    elided_in += row_b * (len(read) - miss)
            if m.direction.copies_out:
                if m.partitioned and collect_outputs and not is_head:
                    bytes_out += row_b * len(shard)
                elif m.partitioned:
                    elided_out += row_b * len(shard)
                self._stage(node, name, shard, write=True)
        return bytes_in, bytes_out, elided_in, elided_out
