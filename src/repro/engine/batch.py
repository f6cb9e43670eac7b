"""Vectorized batch execution of many offload cells at once.

Every figure/table in the reproduction is a *grid* of independent
(machine, kernel, policy) cells, and the virtual-time simulator resolves
each one by walking a pure-Python event heap chunk by chunk.  For the
static scheduling families (BLOCK, MODEL_*, the PROFILE pair, HISTORY,
ALIGN) the chunk stream is *timing-oblivious*: ``next()`` depends only on
the asking device's own call history plus the barrier phase, never on the
clock.  That means a whole batch of cells can be advanced wave by wave as
numpy array ops over a ``(cells x devices x chunks)`` cost tensor:

1. **Enumerate** — each cell's schedulers are asked for their next wave of
   chunks per device (up to the next BARRIER or drain), exactly as often
   as the event loop would ask.
2. **Tensorize** — closed-form chunk costs (``LoopKernel.chunk_cost``),
   Hockney transfers, unified-memory migration and the roofline compute
   time are evaluated elementwise over the whole batch, then the per-device
   pipeline recurrence (copy-in/compute/copy-out frees, double buffering)
   is scanned along the chunk axis.
3. **Commit** — per cell, chunks are replayed through the shared
   :class:`~repro.engine.core.RunContext` helpers in exact event order
   (stable sort on ``(request_time, devid)``, the heap's ordering), so
   accounting, reduction combine order and scheduler ``observe`` feedback
   are bit-identical to the simulator's.

Because every float op replicates the simulator's operation order (same
associativity, same ``max``/``+``/``*``/``/`` sequence, numpy float64 ==
IEEE-754 double), the resulting :class:`OffloadResult` pickles are
**bit-identical** to ``virtual``'s — pinned by
``tests/engine/test_batch_differential.py`` over the full fig5/fig9 grids.

Anything timing-dependent falls back to the simulator per cell,
transparently: dynamic/guided/work-stealing schedulers
(``batch_vectorizable`` is False), active fault plans, tracers, residency
views, noisy devices, and multi-chunk waves on contended machines (PCIe
groups or ``serialize_offload``), where cross-device event interleaving
feeds back into the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.core import ChunkPhase, EngineBase, RunContext, register_backend
from repro.engine.simulator import OffloadEngine
from repro.engine.trace import OffloadResult
from repro.errors import OffloadError
from repro.faults.plan import faults_enabled
from repro.kernels.base import ELEM, LoopKernel
from repro.machine.spec import MachineSpec, MemoryKind
from repro.memory.unified import UnifiedMemoryModel
from repro.obs.tracer import resolve_tracer
from repro.sched.base import BARRIER, LoopScheduler
from repro.util.ranges import IterRange
from repro.util.units import gbs_to_bytes_per_s, gflops_to_flops

__all__ = ["BatchRequest", "BatchEngine"]


@dataclass
class BatchRequest:
    """One cell of a batch: a kernel under one scheduler instance.

    ``execute_numerically`` overrides the engine-level flag per cell
    (None = inherit); the grid runner uses this to run numerics once per
    shared kernel instance instead of once per cell.
    """

    kernel: LoopKernel
    scheduler: LoopScheduler
    cutoff_ratio: float = 0.0
    execute_numerically: bool | None = None


class _Cell:
    """Per-cell mutable state threaded through the wave rounds."""

    __slots__ = (
        "request", "core", "req", "cin", "comp", "cout", "fin", "first",
        "dispatch", "group_free", "wave_chunks", "wave_barrier", "result",
        "fell_back",
    )

    def __init__(self, request: BatchRequest, core: RunContext, ndev: int):
        self.request = request
        self.core = core
        # Per-device pipeline state, mirroring DeviceState's float fields
        # (kept as arrays so rounds can stack cells into (C, D) tensors).
        self.req = np.zeros(ndev)        # next request (= event pop) time
        self.cin = np.zeros(ndev)        # copy_in_free
        self.comp = np.zeros(ndev)       # comp_free
        self.cout = np.zeros(ndev)       # copy_out_free
        self.fin = np.zeros(ndev)        # finish
        self.first = np.ones(ndev, dtype=bool)
        self.dispatch = 0.0              # shared dispatcher (serialize_offload)
        self.group_free: dict[str, float] = {}
        self.wave_chunks: list[list[IterRange]] = []
        self.wave_barrier: list[bool] = []
        self.result: OffloadResult | None = None
        self.fell_back = False


class _DeviceConsts:
    """Per-device scalar columns of the cost tensors, hoisted once."""

    __slots__ = (
        "sched", "setup", "launch", "sflops", "mbps", "lat", "bps",
        "perbuf", "zero", "host", "groups", "contended",
    )

    def __init__(self, machine: MachineSpec, um: UnifiedMemoryModel,
                 serialize_offload: bool):
        specs = list(machine.devices)
        self.sched = np.array([s.sched_overhead_s for s in specs])
        self.setup = np.array([s.setup_overhead_s for s in specs])
        self.launch = np.array([s.launch_overhead_s for s in specs])
        self.sflops = np.array(
            [gflops_to_flops(s.sustained_gflops) for s in specs]
        )
        self.mbps = np.array(
            [gbs_to_bytes_per_s(s.mem_bandwidth_gbs) for s in specs]
        )
        self.lat = np.array([s.link.latency_s for s in specs])
        bps, perbuf, zero = [], [], []
        for s in specs:
            if s.memory is MemoryKind.UNIFIED:
                # migration_time: per-buffer driver cost + Hockney at the
                # derated bandwidth (same product order as the slow Link).
                bps.append(
                    gbs_to_bytes_per_s(
                        s.link.bandwidth_gbs * um.bandwidth_fraction
                    )
                )
                perbuf.append(um.per_buffer_overhead_s)
                zero.append(s.link.is_shared)
            elif s.memory is MemoryKind.SHARED:
                bps.append(1.0)  # masked; shared memory never transfers
                perbuf.append(0.0)
                zero.append(True)
            else:
                bps.append(
                    1.0 if s.link.is_shared
                    else gbs_to_bytes_per_s(s.link.bandwidth_gbs)
                )
                perbuf.append(0.0)
                zero.append(s.link.is_shared)
        self.bps = np.array(bps)
        self.perbuf = np.array(perbuf)
        self.zero = np.array(zero, dtype=bool)
        self.host = np.array(
            [s.memory is not MemoryKind.DISCRETE for s in specs], dtype=bool
        )
        self.groups = [s.pcie_group for s in specs]
        self.contended = serialize_offload or any(
            g is not None for g in self.groups
        )


@dataclass
class BatchEngine(EngineBase):
    """Numpy-vectorized batch backend (registered as ``"batch"``).

    Field-compatible with :class:`~repro.engine.simulator.OffloadEngine`,
    so ``make_backend`` treats the two interchangeably.  ``run`` handles a
    single cell; :meth:`run_many` advances a whole batch in lockstep.  For
    introspection (``chunk_log``/``timeline``/``faults``), the last cell's
    run context is retained.
    """

    backend_name = "batch"

    # The virtual engine's timing model (see OffloadEngine for each knob).
    serialize_offload: bool = False
    double_buffer: bool = True
    unified_model: UnifiedMemoryModel = field(default_factory=UnifiedMemoryModel)

    # -- public entry points -------------------------------------------------

    def run(
        self,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        *,
        cutoff_ratio: float = 0.0,
    ) -> OffloadResult:
        return self.run_many(
            [BatchRequest(kernel=kernel, scheduler=scheduler,
                          cutoff_ratio=cutoff_ratio)]
        )[0]

    def run_many(self, requests: list[BatchRequest]) -> list[OffloadResult]:
        """Execute a batch of cells; results are positionally aligned.

        Vectorizable cells advance together through the tensor rounds;
        the rest run through a per-cell virtual-time simulator with the
        same configuration — either way, each cell's result is what
        ``virtual`` would have produced.
        """
        results: list[OffloadResult | None] = [None] * len(requests)
        vectorized: list[int] = []
        engine_ok = self._engine_vectorizable()
        for i, req in enumerate(requests):
            if engine_ok and req.scheduler.batch_vectorizable:
                vectorized.append(i)
            else:
                results[i] = self._fallback(req)
        if vectorized:
            cells = [self._make_cell(requests[i]) for i in vectorized]
            self._begin_run(cells[0].core)
            try:
                self._advance(cells)
            finally:
                self._end_run()
            for i, cell in zip(vectorized, cells):
                if cell.fell_back:
                    results[i] = self._fallback(cell.request)
                else:
                    results[i] = cell.result
                    self._run_ctx = cell.core
        return results  # type: ignore[return-value]

    # -- vectorizability ------------------------------------------------------

    def _engine_vectorizable(self) -> bool:
        """Engine-level preconditions for the tensor path.

        Fault injection perturbs per-chunk draws and timelines, tracers
        expect spans emitted at event-loop call sites, residency views
        charge order-dependent deltas, and noisy devices draw from
        per-call RNG streams — all of these fall back to ``virtual``.
        """
        if self.fault_plan is not None and not self.fault_plan.empty \
                and faults_enabled():
            return False
        if resolve_tracer(self.tracer).enabled:
            return False
        if self.residency is not None:
            return False
        if any(spec.noise > 0 for spec in self.machine.devices):
            return False
        return True

    def _executes(self, req: BatchRequest) -> bool:
        """Whether ``req`` runs numerics (its override, else the engine's)."""
        if req.execute_numerically is None:
            return self.execute_numerically
        return req.execute_numerically

    def _fallback(self, req: BatchRequest) -> OffloadResult:
        """Run one cell through the virtual-time simulator, transparently."""
        eng = self._delegate(
            OffloadEngine, execute_numerically=self._executes(req)
        )
        result = eng.run(
            req.kernel, req.scheduler, cutoff_ratio=req.cutoff_ratio
        )
        self._run_ctx = eng._run_ctx
        return result

    # -- batch machinery ------------------------------------------------------

    def _make_cell(self, req: BatchRequest) -> _Cell:
        core = self._run_context(
            req.kernel,
            req.scheduler,
            req.cutoff_ratio,
            execute_numerically=self._executes(req),
        )
        return _Cell(req, core, len(core.states))

    def _advance(self, cells: list[_Cell]) -> None:
        consts = _DeviceConsts(
            self.machine, self.unified_model, self.serialize_offload
        )
        while True:
            active = [
                c for c in cells if c.result is None and not c.fell_back
            ]
            if not active:
                return
            for c in active:
                self._enumerate_wave(c)
            if consts.contended:
                # Multi-chunk waves on a contended machine interleave
                # across devices in a timing-dependent order: only the
                # event heap can resolve them.  Waves are enumerated
                # before any commit, so a wave-1 bailout is clean.
                for c in active:
                    if any(len(ch) > 1 for ch in c.wave_chunks):
                        if c.core.covered:
                            raise OffloadError(
                                f"{c.core.scheduler.notation}: multi-chunk "
                                "wave on a contended machine after commits "
                                "began — run this cell on the 'virtual' "
                                "backend"
                            )
                        c.fell_back = True
                active = [c for c in active if not c.fell_back]
                if not active:
                    return
            slot_times = self._compute_wave(active, consts)
            for ci, c in enumerate(active):
                self._commit_wave(c, ci, slot_times)

    def _enumerate_wave(self, cell: _Cell) -> None:
        """Ask each device's scheduler for its wave, to BARRIER or drain.

        Legal exactly because the scheduler is timing-oblivious: the event
        loop would issue the same ``next()`` calls per device, just
        interleaved with the commits this backend performs afterwards.
        """
        core = cell.core
        limit = core.kernel.n_iters + 1
        cell.wave_chunks = []
        cell.wave_barrier = []
        for st in core.states:
            chunks: list[IterRange] = []
            barrier = False
            if not st.done:
                while True:
                    decision = core.scheduler.next(st.device.devid)
                    if decision is None:
                        st.done = True
                        break
                    if decision is BARRIER:
                        barrier = True
                        break
                    chunks.append(decision)
                    if len(chunks) > limit:
                        raise OffloadError(
                            f"{core.scheduler.notation} handed more chunks "
                            "than iterations in one wave — scheduler bug?"
                        )
            cell.wave_chunks.append(chunks)
            cell.wave_barrier.append(barrier)

    def _compute_wave(self, active: list[_Cell], consts: _DeviceConsts):
        """Resolve this wave's pipeline timeline as (C, D, K) tensors.

        Every elementwise op replicates the simulator's expression order,
        so the float64 results are bit-identical to the event loop's.
        Returns the per-slot arrays the commit phase reads, or None when
        the wave carries no chunks at all.
        """
        C = len(active)
        D = len(self.machine)
        K = max(
            (len(ch) for c in active for ch in c.wave_chunks), default=0
        )
        if K == 0:
            return None

        n = np.zeros((C, D, K), dtype=np.int64)
        eff = np.ones((C, D, K))
        fpi = np.empty((C, 1, 1))
        mempi = np.empty((C, 1, 1))
        xin_row = np.empty((C, 1, 1))
        xout_row = np.empty((C, 1, 1))
        rep = np.empty((C, 1, 1))
        for ci, c in enumerate(active):
            kernel = c.core.kernel
            cc = kernel._cost_constants()
            fpi[ci] = cc.flops_per_iter
            mempi[ci] = cc.mem_bytes_per_iter
            # chunk_cost multiplies elems * ELEM first, then by n.
            xin_row[ci] = cc.xfer_in_elems * ELEM
            xout_row[ci] = cc.xfer_out_elems * ELEM
            rep[ci] = cc.replicated_in_bytes
            for d, chunks in enumerate(c.wave_chunks):
                for k, chunk in enumerate(chunks):
                    n[ci, d, k] = len(chunk)
                    eff[ci, d, k] = kernel.chunk_efficiency(len(chunk))

        first = np.stack([c.first for c in active])        # (C, D)
        first_slot = np.zeros((C, D, K), dtype=bool)
        first_slot[:, :, 0] = first & (n[:, :, 0] > 0)

        # Closed-form chunk costs (LoopKernel.chunk_cost, elementwise).
        flops = (fpi * n) / eff
        mem = mempi * n
        b_in = (xin_row * n) + np.where(first_slot, rep, 0.0)
        b_out = xout_row * n
        # Roofline compute (Device.compute_time) and Hockney / unified
        # migration transfers (Link.transfer_time / migration_time).
        sflops = consts.sflops[None, :, None]
        mbps = consts.mbps[None, :, None]
        launch = consts.launch[None, :, None]
        lat = consts.lat[None, :, None]
        bps = consts.bps[None, :, None]
        perbuf = consts.perbuf[None, :, None]
        zero = consts.zero[None, :, None]
        t_comp = np.maximum(flops / sflops, mem / mbps) + launch
        t_in = np.where(zero | (b_in == 0.0), 0.0, perbuf + (lat + b_in / bps))
        t_out = np.where(
            zero | (b_out == 0.0), 0.0, perbuf + (lat + b_out / bps)
        )

        # Pipeline scan along the chunk axis, on (C, D) state slices.
        req = np.stack([c.req for c in active])
        cin = np.stack([c.cin for c in active])
        comp = np.stack([c.comp for c in active])
        cout = np.stack([c.cout for c in active])
        fin = np.stack([c.fin for c in active])
        sched2 = consts.sched[None, :]
        setup2 = consts.setup[None, :]
        host2 = consts.host[None, :]

        shape = (C, D, K)
        acq = np.zeros(shape)
        t_setup = np.zeros(shape)
        in_s = np.zeros(shape)
        in_e = np.zeros(shape)
        cp_s = np.zeros(shape)
        cp_e = np.zeros(shape)
        ou_s = np.zeros(shape)
        ou_e = np.zeros(shape)

        if consts.contended:
            # Serialized dispatch / PCIe-group contention: resolve devices
            # in event order (all same-wave requests tie on time, so the
            # heap pops them in devid order), K == 1 guaranteed above.
            disp = np.array([c.dispatch for c in active])
            names = sorted({g for g in consts.groups if g is not None})
            gfree = {
                g: np.array([c.group_free.get(g, 0.0) for c in active])
                for g in names
            }
            for d in range(D):
                valid = n[:, d, 0] > 0
                setup_d = np.where(first_slot[:, d, 0], consts.setup[d], 0.0)
                acquire_end = (req[:, d] + consts.sched[d]) + setup_d
                in_start = np.maximum(acquire_end, cin[:, d])
                if self.serialize_offload:
                    in_start = np.maximum(in_start, disp)
                g = consts.groups[d]
                if g is not None:
                    in_start = np.maximum(in_start, gfree[g])
                in_end = in_start + t_in[:, d, 0]
                if self.serialize_offload:
                    disp = np.where(valid, in_end, disp)
                if g is not None:
                    gfree[g] = np.where(
                        valid & (in_end > in_start), in_end, gfree[g]
                    )
                comp_prev = comp[:, d].copy()
                comp_start = np.maximum(in_end, comp[:, d])
                comp_end = comp_start + t_comp[:, d, 0]
                out_start = np.maximum(comp_end, cout[:, d])
                if g is not None:
                    out_start = np.maximum(out_start, gfree[g])
                out_end = out_start + t_out[:, d, 0]
                if g is not None:
                    gfree[g] = np.where(
                        valid & (out_end > out_start), out_end, gfree[g]
                    )
                acq[:, d, 0] = req[:, d]
                t_setup[:, d, 0] = setup_d
                in_s[:, d, 0] = in_start
                in_e[:, d, 0] = in_end
                cp_s[:, d, 0] = comp_start
                cp_e[:, d, 0] = comp_end
                ou_s[:, d, 0] = out_start
                ou_e[:, d, 0] = out_end
                cin[:, d] = np.where(valid, in_end, cin[:, d])
                comp[:, d] = np.where(valid, comp_end, comp[:, d])
                cout[:, d] = np.where(valid, out_end, cout[:, d])
                fin[:, d] = np.where(
                    valid, np.maximum(fin[:, d], out_end), fin[:, d]
                )
                if consts.host[d]:
                    nxt = comp_end
                elif self.double_buffer:
                    nxt = np.maximum(in_end, comp_prev)
                else:
                    nxt = out_end
                req[:, d] = np.where(valid, nxt, req[:, d])
            for ci, c in enumerate(active):
                c.dispatch = float(disp[ci])
                for g in names:
                    c.group_free[g] = float(gfree[g][ci])
        else:
            for k in range(K):
                valid = n[:, :, k] > 0
                setup_k = np.where(first_slot[:, :, k], setup2, 0.0)
                acquire_end = (req + sched2) + setup_k
                in_start = np.maximum(acquire_end, cin)
                in_end = in_start + t_in[:, :, k]
                comp_prev = comp
                comp_start = np.maximum(in_end, comp)
                comp_end = comp_start + t_comp[:, :, k]
                out_start = np.maximum(comp_end, cout)
                out_end = out_start + t_out[:, :, k]
                acq[:, :, k] = req
                t_setup[:, :, k] = setup_k
                in_s[:, :, k] = in_start
                in_e[:, :, k] = in_end
                cp_s[:, :, k] = comp_start
                cp_e[:, :, k] = comp_end
                ou_s[:, :, k] = out_start
                ou_e[:, :, k] = out_end
                cin = np.where(valid, in_end, cin)
                comp = np.where(valid, comp_end, comp)
                cout = np.where(valid, out_end, cout)
                fin = np.where(valid, np.maximum(fin, out_end), fin)
                if self.double_buffer:
                    nxt = np.where(
                        host2, comp_end, np.maximum(in_end, comp_prev)
                    )
                else:
                    nxt = np.where(host2, comp_end, out_end)
                req = np.where(valid, nxt, req)

        for ci, c in enumerate(active):
            c.req = req[ci].copy()
            c.cin = cin[ci].copy()
            c.comp = comp[ci].copy()
            c.cout = cout[ci].copy()
            c.fin = fin[ci].copy()
        return {
            "b_in": b_in, "b_out": b_out, "t_in": t_in, "t_comp": t_comp,
            "t_out": t_out, "acq": acq, "t_setup": t_setup, "in_s": in_s,
            "in_e": in_e, "cp_s": cp_s, "cp_e": cp_e, "ou_s": ou_s,
            "ou_e": ou_e,
        }

    def _commit_wave(self, cell: _Cell, ci: int, slots) -> None:
        """Replay this wave's chunks through the RunContext in event order,
        then release the barrier or finalize the cell."""
        core = cell.core
        order: list[tuple[float, int, int, IterRange]] = []
        for d, chunks in enumerate(cell.wave_chunks):
            for k, chunk in enumerate(chunks):
                order.append((float(slots["acq"][ci, d, k]), d, k, chunk))
        # The event heap pops (request_time, devid) in sorted order; the
        # sort is stable, so a device's equal-time chunks keep their
        # issue order.
        order.sort(key=lambda s: (s[0], s[1]))
        for acq_t, d, k, chunk in order:
            st = core.states[d]
            spec = st.device.spec
            tm = core.begin_chunk(d, chunk, acq_t)
            tm.bytes_in = float(slots["b_in"][ci, d, k])
            tm.bytes_out = float(slots["b_out"][ci, d, k])
            tm.t_setup = float(slots["t_setup"][ci, d, k])
            st.first_chunk = False
            tm.t_sched = spec.sched_overhead_s
            tm.advance(ChunkPhase.XFER_IN)
            tm.advance(ChunkPhase.COMPUTE)
            tm.advance(ChunkPhase.XFER_OUT)
            t_in = float(slots["t_in"][ci, d, k])
            t_comp = float(slots["t_comp"][ci, d, k])
            t_out = float(slots["t_out"][ci, d, k])
            tm.t_in, tm.t_comp, tm.t_out = t_in, t_comp, t_out
            tm.in_start = float(slots["in_s"][ci, d, k])
            tm.in_end = float(slots["in_e"][ci, d, k])
            tm.comp_start = float(slots["cp_s"][ci, d, k])
            tm.comp_end = float(slots["cp_e"][ci, d, k])
            tm.out_start = float(slots["ou_s"][ci, d, k])
            tm.out_end = float(slots["ou_e"][ci, d, k])
            st.copy_in_free = tm.in_end
            st.comp_free = tm.comp_end
            st.copy_out_free = tm.out_end
            st.finish = max(st.finish, tm.out_end)
            core.account_chunk(st, tm)
            core.commit_chunk(st, tm, t_in + t_comp + t_out)

        cell.first &= np.array(
            [len(ch) == 0 for ch in cell.wave_chunks], dtype=bool
        )
        waiting = False
        for d, barrier in enumerate(cell.wave_barrier):
            if barrier:
                st = core.states[d]
                st.at_barrier = max(float(cell.req[d]), st.finish)
                waiting = True
        if all(st.done for st in core.states):
            cell.result = core.finalize()
            return
        if not waiting or not core.barrier_ready():
            raise OffloadError(
                f"{core.scheduler.notation}: wave ended with devices "
                "neither drained nor at the barrier — scheduler bug?"
            )
        t_rel = core.release_barrier(lambda st, t: None)
        for d, st in enumerate(core.states):
            if not st.done:
                cell.req[d] = t_rel


register_backend("batch", BatchEngine, aliases=("vectorized", "vec"))
