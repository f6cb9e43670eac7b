"""Kernel abstraction: a parallel loop + its data maps + analytic costs.

A :class:`LoopKernel` describes one offloadable parallel loop the way a
HOMP ``parallel target`` region does:

* an iteration space (always 1-D here; 2-D loops are collapsed over rows,
  exactly like the paper's ``collapse(2)`` Jacobi loops),
* a set of :class:`MapSpec` entries — which arrays it touches, in which
  direction, partitioned how, with what halo,
* analytic per-iteration costs (FLOPs, device-memory bytes, bus bytes)
  that feed both the simulator's clock and the Table IV ratios,
* the *real* NumPy computation, executed per chunk through
  :class:`~repro.memory.buffer.DeviceBuffer` views so the region /
  index-translation path is exercised numerically (the bytes a discrete
  device would move are priced by the link model, not copied).

``execute_chunk(rows)`` runs ``rows`` — one chunk, or merged chunks of a
:attr:`~LoopKernel.span_exact` kernel at a virtual-time run's finalize
(``stats`` counts calls) — on views of the host arrays, so its outputs land
in them directly; :meth:`check` compares them against a serial reference.
Everything a chunk needs from the maps except its dim-0 bounds — names,
directions, halos — is bound once into a per-kernel chunk plan (dropped
with the memoised :meth:`~LoopKernel.effective_maps` on ``set_partition``),
so a chunk pays for its halo clamp, its buffers and its arithmetic only.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from repro.dist.policy import Full, Policy
from repro.errors import MappingError
from repro.kernels.pool import _pooled_reference
from repro.memory.buffer import DeviceBuffer
from repro.memory.space import MapDirection
from repro.model.kernel_model import KernelCosts
from repro.model.roofline import IntensityClass
from repro.util.ranges import IterRange

__all__ = ["MapSpec", "ChunkCost", "LoopKernel"]

ELEM = 8  # double precision throughout, as in the paper's kernels


@dataclass(frozen=True)
class MapSpec:
    """One ``map(direction: name[...] partition([policies]) halo(lo,hi))``."""

    name: str
    direction: MapDirection
    policies: tuple[Policy, ...]
    halo: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if self.halo[0] < 0 or self.halo[1] < 0:
            raise MappingError(f"map {self.name!r}: halo must be >= 0")

    @property
    def partitioned(self) -> bool:
        """True when dim 0 is split across devices (ALIGN'd to the loop, or
        statically BLOCK partitioned)."""
        return not isinstance(self.policies[0], Full)

    @property
    def replicated(self) -> bool:
        return all(isinstance(p, Full) for p in self.policies)


@dataclass(frozen=True)
class ChunkCost:
    """Simulated costs of one chunk on one device."""

    flops: float
    mem_bytes: float
    xfer_in_bytes: float
    xfer_out_bytes: float
    replicated_in_bytes: float  # charged only on a device's first chunk


@dataclass(frozen=True)
class _CostConstants:
    """Per-iteration cost constants hoisted out of the chunk hot path.

    ``chunk_cost`` is called once per chunk — thousands of times per
    dynamic/guided offload — and every field here is invariant across
    chunks: it only changes when the effective maps change (a
    ``set_partition`` override), which invalidates the cache — and with it
    ``priced``, the :class:`ChunkCost` of every chunk length priced so far.
    """

    flops_per_iter: float
    mem_bytes_per_iter: float  # includes ELEM and device_mem_factor
    xfer_in_elems: float
    xfer_out_elems: float
    replicated_in_bytes: float
    priced: dict[int, ChunkCost] = field(default_factory=dict, compare=False)


@lru_cache(maxsize=256)
def _full_extents(shape: tuple[int, ...]) -> tuple[IterRange, ...]:
    """``IterRange(0, extent)`` per dim of an array of ``shape``."""
    return tuple(IterRange(0, extent) for extent in shape)


@dataclass
class _RunStats:
    chunks: int = 0
    iterations: int = 0


class LoopKernel(ABC):
    """Base class for offloadable parallel-loop kernels."""

    #: short name used in figures/tables (e.g. "axpy")
    name: str = "kernel"
    #: loop label referenced by ALIGN(...) in directives
    label: str = "loop"
    #: Table IV characterisation the paper assigns this kernel
    table_class: IntensityClass = IntensityClass.BALANCED
    #: Multiplier on effective device-memory traffic when *executing* (not
    #: in the Table IV accounting): kernels whose access pattern runs below
    #: streaming bandwidth (e.g. atomics-based reductions on Kepler-era
    #: GPUs) set this > 1.
    device_mem_factor: float = 1.0
    #: Rows ``[a, c)`` in one ``execute_chunk`` call are byte-equal to
    #: ``[a, b)`` and ``[b, c)`` in either order, so the engine may merge
    #: contiguous chunks.  BLAS kernels (blocking changes bytes)
    #: and reductions (partials combine per chunk) leave it False.
    span_exact: bool = False
    #: The inputs' pool key + every parameter ``reference()`` reads, if pooled.
    _ref_key: tuple | None = None

    def __init__(self, n_iters: int, arrays: dict[str, np.ndarray]):
        if n_iters <= 0:
            raise ValueError(f"{self.name}: n_iters must be positive")
        self.n_iters = int(n_iters)
        self.arrays = dict(arrays)
        self.stats = _RunStats()
        # Per-array dim-0 policy overrides (set_partition).
        self._policy_overrides: dict[str, Policy] = {}
        self._cost_cache: _CostConstants | None = None
        # effective_maps() and the chunk plan bound from it: filled lazily (a
        # subclass may finish its maps after this constructor returns).
        self._maps: tuple[MapSpec, ...] | None = None
        self._chunk_plan: tuple[tuple, ...] | None = None
        self._stats_lock = threading.Lock()
        written: set[str] = set()
        for m in self.maps():
            if m.name not in self.arrays:
                raise MappingError(f"{self.name}: map names unknown array {m.name!r}")
            arr = self.arrays[m.name]
            if len(m.policies) != arr.ndim:
                raise MappingError(
                    f"{self.name}: map {m.name!r} has {len(m.policies)} policies "
                    f"for a rank-{arr.ndim} array"
                )
            if m.direction.copies_out:
                written.add(m.name)
        mapped = {m.name for m in self.maps()}
        # Pristine inputs: reference() must see pre-run values even for
        # arrays the kernel updates in place (tofrom maps).  An array that
        # arrives non-writeable (a pooled base) is pristine by construction:
        # it *is* the snapshot, and the run gets a private writable copy only
        # if a map writes it.  Writable arrays mapped only inbound are aliased
        # too — compute() cannot write through a pure-input (to) map: its
        # buffer is a read-only view on every device kind.
        self._initial = {}
        for k, v in self.arrays.items():
            shared = not v.flags.writeable or (k in mapped and k not in written)
            self._initial[k] = v if shared else v.copy()
            if k in written and not v.flags.writeable:
                self.arrays[k] = v.copy()

    # -- declarative surface -------------------------------------------------

    @property
    def iter_space(self) -> IterRange:
        return IterRange(0, self.n_iters)

    @abstractmethod
    def maps(self) -> tuple[MapSpec, ...]:
        """The kernel's map clauses (as declared)."""

    def set_partition(self, name: str, policy: Policy) -> None:
        """Override an array's dim-0 partition policy.

        This is how a directive's ``partition([BLOCK])`` on a mapped array
        replaces the kernel's declared policy (e.g. to use the paper's
        v1-style "align computation with data").
        """
        if name not in self.arrays:
            raise MappingError(f"{self.name}: no mapped array {name!r}")
        self._policy_overrides[name] = policy
        # maps changed: drop them and everything hoisted from them
        self._cost_cache = self._maps = self._chunk_plan = None

    def effective_maps(self) -> tuple[MapSpec, ...]:
        """Maps with partition overrides applied (memoised until the next
        ``set_partition``)."""
        if self._maps is None:
            overrides = self._policy_overrides
            self._maps = tuple(
                replace(m, policies=(overrides[m.name], *m.policies[1:]))
                if m.name in overrides
                else m
                for m in self.maps()
            )
        return self._maps

    # -- analytic per-iteration costs ----------------------------------------

    @abstractmethod
    def flops_per_iter(self) -> float:
        """Arithmetic operations per loop iteration."""

    @abstractmethod
    def mem_accesses_per_iter(self) -> float:
        """Device-memory load/stores per iteration, in *elements*."""

    def ops_per_iter(self) -> float:
        """Normalisation unit for Table IV ratios (defaults to FLOPs)."""
        return self.flops_per_iter()

    def xfer_elems_per_iter(self) -> float:
        """Bus elements per iteration, derived from the partitioned maps."""
        cc = self._cost_constants()
        return cc.xfer_in_elems + cc.xfer_out_elems

    def _row_elems(self, m: MapSpec) -> int:
        """Elements per dim-0 index of a mapped array."""
        arr = self.arrays[m.name]
        n = 1
        for extent in arr.shape[1:]:
            n *= extent
        return n

    def row_nbytes(self, name: str) -> int:
        """Bytes per dim-0 index of a mapped array (the residency ledger's
        charging unit)."""
        arr = self.arrays[name]
        n = arr.itemsize
        for extent in arr.shape[1:]:
            n *= extent
        return n

    def replicated_in_bytes(self) -> float:
        """Bytes of FULL-mapped input copied once to each discrete device."""
        return self._cost_constants().replicated_in_bytes

    def _replicated_in_bytes_scan(self) -> float:
        total = 0.0
        for m in self.effective_maps():
            if m.replicated and m.direction.copies_in:
                total += self.arrays[m.name].nbytes
        return total

    def chunk_efficiency(self, n: int) -> float:
        """Fraction of sustained throughput a chunk of ``n`` iterations
        achieves.  Defaults to 1.0; kernels that need large tiles to fill a
        wide device (GEMM) override this, which is one reason chunked
        scheduling loses to BLOCK on compute-intensive kernels."""
        return 1.0

    def _cost_constants(self) -> _CostConstants:
        """Hoisted per-iteration constants, rebuilt only after map changes.

        The multiplication order in each field matches the historical
        per-call expressions exactly, so cached and uncached chunk costs
        are bit-identical.
        """
        cc = self._cost_cache
        if cc is None:
            cc = _CostConstants(
                flops_per_iter=self.flops_per_iter(),
                mem_bytes_per_iter=(
                    self.mem_accesses_per_iter() * ELEM * self.device_mem_factor
                ),
                xfer_in_elems=self._xfer_dir_elems(True),
                xfer_out_elems=self._xfer_dir_elems(False),
                replicated_in_bytes=self._replicated_in_bytes_scan(),
            )
            self._cost_cache = cc
        return cc

    def chunk_cost(self, rows: IterRange) -> ChunkCost:
        """Simulated cost of executing ``rows`` as one chunk.

        Hot path: called once per chunk (thousands of times under dynamic
        or guided scheduling), so it works from :meth:`_cost_constants`
        instead of rescanning ``effective_maps()`` per call, and returns
        the same frozen :class:`ChunkCost` for a length it already priced.
        """
        n = rows.stop - rows.start
        cc = self._cost_cache or self._cost_constants()
        cost = cc.priced.get(n)
        if cost is None:
            eff = self.chunk_efficiency(n)
            if not 0.0 < eff <= 1.0:
                raise ValueError(f"{self.name}: chunk_efficiency must be in (0, 1]")
            cost = cc.priced[n] = ChunkCost(
                flops=cc.flops_per_iter * n / eff,
                mem_bytes=cc.mem_bytes_per_iter * n,
                xfer_in_bytes=cc.xfer_in_elems * ELEM * n,
                xfer_out_bytes=cc.xfer_out_elems * ELEM * n,
                replicated_in_bytes=cc.replicated_in_bytes,
            )
        return cost

    def _xfer_dir_elems(self, inbound: bool) -> float:
        total = 0.0
        for m in self.effective_maps():
            if not m.partitioned:
                continue
            if inbound and m.direction.copies_in:
                total += self._row_elems(m)
            if not inbound and m.direction.copies_out:
                total += self._row_elems(m)
        return total

    def costs(self) -> KernelCosts:
        """Whole-loop analytic costs (Table IV reproduction)."""
        fpi = self.flops_per_iter()
        mpi = self.mem_accesses_per_iter() * ELEM
        xpi = self.xfer_elems_per_iter() * ELEM
        opi = self.ops_per_iter()
        return KernelCosts(
            flops_of=lambda n: fpi * n,
            mem_bytes_of=lambda n: mpi * n,
            xfer_bytes_of=lambda n: xpi * n,
            elem_bytes=ELEM,
            ops_of=lambda n: opi * n,
        )

    def mem_comp(self) -> float:
        """Table IV MemComp at this problem size."""
        return self.costs().mem_comp(self.n_iters)

    def data_comp(self) -> float:
        """Table IV DataComp at this problem size."""
        return self.costs().data_comp(self.n_iters)

    # -- execution -------------------------------------------------------------

    def input_region(self, m: MapSpec, rows: IterRange) -> tuple[IterRange, ...]:
        """Global region of array ``m`` a chunk needs (halo-expanded)."""
        arr = self.arrays[m.name]
        dims: list[IterRange] = []
        for d, policy in enumerate(m.policies):
            extent = IterRange(0, arr.shape[d])
            if d == 0 and m.partitioned:
                dims.append(rows.expand(m.halo[0], m.halo[1], clamp=extent))
            else:
                dims.append(extent)
        return tuple(dims)

    def execute_chunk(self, rows: IterRange) -> float | None:
        """Run ``rows`` through the buffer path, on views of the host arrays.

        Returns a partial reduction value for reduction kernels, else None.
        Each buffer's region is :meth:`input_region`'s, derived from the
        bound chunk plan: only the dim-0 halo clamp is computed per chunk.
        A map that does not copy out gets a read-only view.  Host arrays are
        looked up per chunk, since callers may rebind them.
        """
        start, stop = rows.start, rows.stop
        if start == stop:
            return self.identity()
        if start < 0 or stop > self.n_iters:
            raise MappingError(
                f"{self.name}: chunk [{start},{stop}) outside "
                f"iteration space [0,{self.n_iters})"
            )
        arrays = self.arrays
        buffers: dict[str, DeviceBuffer] = {}
        for name, partitioned, lo, hi, writes, rank in (
            self._chunk_plan or self._bind_chunk_plan()
        ):
            host = arrays[name]
            full = _full_extents(host.shape)
            if len(full) != rank:
                raise MappingError(
                    f"{self.name}: map {name!r} has {rank} policies "
                    f"for a rank-{len(full)} array"
                )
            region = full
            if partitioned:
                extent = full[0]
                a, b = max(start - lo, 0), min(stop + hi, extent.stop)
                r0 = IterRange(a, b) if a <= b else rows.expand(lo, hi, clamp=extent)
                region = (r0, *full[1:])
            buffers[name] = DeviceBuffer(name, host, region, writes)
        partial = self.compute(buffers, rows)
        with self._stats_lock:
            self.stats.chunks += 1
            self.stats.iterations += stop - start
        return partial

    def _bind_chunk_plan(self) -> tuple[tuple, ...]:
        """Per map ``(name, partitioned, halo_lo, halo_hi, copies_out, rank)``."""
        self._chunk_plan = plan = tuple(
            (m.name, m.partitioned, *m.halo, m.direction.copies_out, len(m.policies))
            for m in self.effective_maps()
        )
        return plan

    @abstractmethod
    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange) -> float | None:
        """The loop body over ``rows``, on device-local buffers."""

    # -- reductions -------------------------------------------------------------

    @property
    def is_reduction(self) -> bool:
        return False

    def identity(self) -> float | None:
        """Reduction identity (None for non-reduction kernels)."""
        return 0.0 if self.is_reduction else None

    def combine(self, a: float | None, b: float | None) -> float | None:
        """Combine two partial reduction values."""
        if not self.is_reduction:
            return None
        return float(a or 0.0) + float(b or 0.0)

    # -- verification -----------------------------------------------------------

    @abstractmethod
    def reference(self) -> dict[str, np.ndarray] | float:
        """Serial reference result: output arrays, or the reduction value."""

    def _reference(self) -> dict[str, np.ndarray] | float:
        """``reference()``, computed once per pooled input set — never for
        a kernel that owns (so may have rewritten) any array it reads."""
        if self._ref_key is None or any(
            v.flags.writeable for v in self._initial.values()
        ):
            return self.reference()
        return _pooled_reference((type(self), *self._ref_key), self.reference)
