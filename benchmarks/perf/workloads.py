"""The eight workloads of the host-time perf ledger.

Each workload drives the *public* API of the layers it stresses and runs
in **laps**: one lap executes a fixed operation list whose composition is
a constant of this file (never time-adaptive) and whose order is drawn
from ``--seed``.  The operation lists are balanced multisets (every
kernel x policy x ... combination appears equally often) shuffled by the
seed, so two seeds exercise the same work in a different order: host-time
metrics then differ between seeds only by noise, which is what lets a
held-out seed confirm a claim made on another.

A lap returns a :class:`Lap`: its wall time, one latency sample per op,
the canonical form of every result (for the simulation digest) and the
counts the per-layer metrics need.  Result checking happens after the
lap's clock stopped.

Repro functions are called through their *modules* (``ir_lower.
from_directives(...)``), not through names imported into this file, so
the traced pass — which patches ``repro.*`` namespaces — sees the calls.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import statistics
import time

from repro.apps import blas_chain, streaming
from repro.bench import runner as bench_runner
from repro.dist.distribution import DimDistribution
from repro.dist.policy import Block
from repro.engine import batch as engine_batch
from repro.engine import core as engine_core
from repro.ir import lower as ir_lower
from repro.ir import passes as ir_passes
from repro.kernels import registry as kernel_registry
from repro.machine.presets import full_node, gpu4_node
from repro.runtime import halo as runtime_halo
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.runtime import HompRuntime
from repro.sched import registry as sched_registry
from repro.service import (
    OffloadJob,
    OffloadService,
    TenantQuota,
    WorkloadTemplate,
)
from repro.util.ranges import IterRange

perf = time.perf_counter

#: The seven Table II algorithms (``repro.bench.ALL_POLICIES`` order).
TABLE2 = bench_runner.ALL_POLICIES
#: Timing-driven policies: never coalescible, never batch-vectorizable.
TIMING_POLICIES = ("SCHED_DYNAMIC", "SCHED_GUIDED", "WORK_STEALING")
#: Timing-oblivious policies the batch backend advances as tensors.
VECTOR_POLICIES = (
    "BLOCK",
    "MODEL_1_AUTO",
    "MODEL_2_AUTO",
    "SCHED_PROFILE_AUTO",
    "MODEL_PROFILE_AUTO",
)


class Lap:
    """Outcome of one lap: timing, per-op samples, checked results."""

    def __init__(self, keep: bool = False) -> None:
        self.wall_s = 0.0
        self.ops = 0
        self.samples: list[float] = []  # per-op wall latency, seconds
        self.starts: list[float] = []  # perf_counter at each op's start
        #: raw results, kept only for --selfcheck's pickle comparison
        self.results: list | None = [] if keep else None
        self.failures: list[str] = []
        self.canon: list[tuple] = []  # canonical results, digest input
        self.sim_s = 0.0  # simulated makespan summed over the lap
        self.offloads = 0
        self.chunks = 0
        self.fused = 0
        self.bytes_moved = 0.0
        self.bytes_elided = 0.0
        self.extra: dict[str, float] = {}  # workload-specific counts
        self.series: dict[str, list[float]] = {}  # e.g. queue waits

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def add(self, result, n_iters: int, *, makespan: bool = True) -> None:
        """Check one ``OffloadResult`` and fold it into the lap.

        Invariants on every result: iterations over devices sum to
        ``n_iters``, the makespan is not earlier than any device's
        finish, residency byte counts are non-negative.  ``makespan=
        False`` keeps a stream batch's cumulative time out of ``sim_s``
        (the stream's own makespan is added once).
        """
        iters = tuple(t.iters for t in result.traces)
        res = result.meta.get("residency") or {}
        moved = float(res.get("bytes_moved", 0.0))
        elided = float(res.get("bytes_elided", 0.0))
        total = float(result.total_time_s)
        if sum(iters) != n_iters:
            self.fail(f"{result.kernel_name}/{result.algorithm}: "
                      f"{sum(iters)} of {n_iters} iterations")
        if total < max((t.finish_s for t in result.traces), default=0.0):
            self.fail(f"{result.kernel_name}/{result.algorithm}: makespan "
                      "earlier than a device finish")
        if moved < 0.0 or elided < 0.0:
            self.fail(f"{result.kernel_name}/{result.algorithm}: negative "
                      "residency bytes")
        self.canon.append((total.hex(), iters, moved.hex(), elided.hex()))
        if self.results is not None:
            self.results.append(result)
        self.offloads += 1
        self.chunks += sum(t.chunks for t in result.traces)
        self.bytes_moved += moved
        self.bytes_elided += elided
        if "fusion" in result.meta:
            self.fused += 1
        if makespan:
            self.sim_s += total


class Workload:
    """One named traffic shape; subclasses fill in build/lap."""

    name = ""
    #: what one op is, and what one latency sample measures
    op = ""
    sample = ""

    def __init__(self, seed: int, scale: float = 1.0, keep: bool = False):
        self.seed = seed
        self.scale = scale
        self.keep = keep
        self.rng = random.Random(f"{self.name}:{seed}")

    def scaled(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def shuffled(self, items) -> list:
        """Seeded order of a balanced op list, cut to the scaled length."""
        items = list(items)
        self.rng.shuffle(items)
        return items[: self.scaled(len(items))]

    def build(self) -> None:
        raise NotImplementedError

    def lap(self) -> Lap:
        raise NotImplementedError

    def timed(self, plan, run_op) -> Lap:
        """One lap of a plan of independent ops: ``run_op(op)`` returns
        ``(n_iters, results)``; an op that raises is a failed op.  Results
        are checked after the lap's clock stopped."""
        lap = Lap(self.keep)
        done = []
        t_lap = perf()
        for op in plan:
            t0 = perf()
            try:
                out = run_op(op)
            except Exception as exc:
                lap.fail(f"{op}: {exc!r}")
                continue
            lap.samples.append(perf() - t0)
            lap.starts.append(t0)
            done.append(out)
        lap.wall_s = perf() - t_lap
        lap.ops = len(plan)
        for n_iters, results in done:
            for r in results:
                lap.add(r, n_iters)
        return lap

    def close(self) -> None:
        """Release what build() started (the service workloads' loop)."""

    def direct_seconds(self) -> float:
        """Seconds per op of the same ops without the layer under test
        (service workloads only; 0.0 = no such baseline)."""
        return 0.0


def _region_for(rt: HompRuntime, kernel) -> TargetDataRegion:
    """A target-data region mapping exactly the kernel's own arrays."""
    maps = kernel.effective_maps()
    return TargetDataRegion(
        runtime=rt,
        maps={m.name: (kernel.arrays[m.name], m.direction) for m in maps},
        partitioned=frozenset(m.name for m in maps if m.partitioned),
    )


class OneshotMix(Workload):
    name = "oneshot_mix"
    op = "one HompRuntime.parallel_for"
    sample = "one parallel_for call"
    KERNELS = (
        ("axpy", 200_000), ("sum", 200_000), ("matvec", 1000),
        ("matmul", 256), ("stencil", 256), ("bm", 128),
    )
    CUTOFFS = (0.0, "auto", 0.15)
    DEVICES = (None, "device(0:*)", "device(0:*:NVGPU)")
    REPEATS = 4  # x 378 combinations = 1512 ops per lap

    def build(self) -> None:
        self.rt = HompRuntime(full_node(), execute_numerically=False)
        self.kernels = {
            k: kernel_registry.make_kernel(k, n) for k, n in self.KERNELS
        }
        combos = itertools.product(
            self.kernels, TABLE2, self.CUTOFFS, self.DEVICES
        )
        self.plan = self.shuffled(list(combos) * self.REPEATS)

    def lap(self) -> Lap:
        rt, kernels = self.rt, self.kernels

        def run_op(op):
            kname, policy, cutoff, devices = op
            kernel = kernels[kname]
            return kernel.n_iters, [rt.parallel_for(
                kernel, schedule=policy, cutoff_ratio=cutoff, devices=devices,
            )]

        return self.timed(self.plan, run_op)


class ChunkHeavy(Workload):
    name = "chunk_heavy"
    op = "one HompRuntime.parallel_for (0.5-4 k chunks)"
    sample = "one parallel_for call"
    KERNELS = (("axpy", 200_000), ("matvec", 2000), ("stencil", 512))
    CHUNK_PCTS = (0.001, 0.0005, 0.00025)
    REPEATS = 3  # x 9 combinations + 3 in-region = 30 ops per lap
    #: In-region ops are a fixed property of the plan, not of the seeded
    #: position: ``RegionResidency.charge_chunk`` costs 90-500 us per
    #: chunk here (growing with the chunk count) against ~12 us for a
    #: plain chunk, so letting the shuffle pick them would make lap length
    #: a function of the seed.  One per kernel, at the coarsest chunking.
    IN_REGION_PCT = 0.001

    def build(self) -> None:
        self.rt = HompRuntime(full_node(), execute_numerically=False)
        self.kernels = {
            k: kernel_registry.make_kernel(k, n) for k, n in self.KERNELS
        }
        plain = itertools.product(self.kernels, self.CHUNK_PCTS, (False,))
        in_region = [(k, self.IN_REGION_PCT, True) for k in self.kernels]
        self.plan = self.shuffled(list(plain) * self.REPEATS + in_region)

    def lap(self) -> Lap:
        rt = self.rt

        def run_op(op):
            kname, pct, in_region = op
            kernel = self.kernels[kname]
            if in_region:
                with _region_for(rt, kernel) as region:
                    r = region.parallel_for(
                        kernel, schedule="SCHED_DYNAMIC", chunk_pct=pct
                    )
            else:
                r = rt.parallel_for(
                    kernel, schedule="SCHED_DYNAMIC", chunk_pct=pct
                )
            return kernel.n_iters, [r]

        return self.timed(self.plan, run_op)


class BatchCells(Workload):
    name = "batch_cells"
    op = "one cell of a BatchEngine.run_many call"
    sample = "one run_many call of 600 cells"
    KERNELS = OneshotMix.KERNELS
    CUTOFFS = tuple(round(0.015 * i, 3) for i in range(20))
    CALLS = 7  # x 600 cells = 4200 ops per lap
    CELLS = len(KERNELS) * len(VECTOR_POLICIES) * len(CUTOFFS)

    def build(self) -> None:
        self.engine = engine_core.make_backend(
            "batch", gpu4_node(), execute_numerically=False
        )
        self.kernels = {
            k: kernel_registry.make_kernel(k, n) for k, n in self.KERNELS
        }
        cells = list(
            itertools.product(self.kernels, VECTOR_POLICIES, self.CUTOFFS)
        )
        self.calls = [self.shuffled(cells) for _ in range(self.CALLS)]

    def lap(self) -> Lap:
        lap = Lap(self.keep)
        done = []
        t_lap = perf()
        for cells in self.calls:
            t0 = perf()
            try:
                requests = [
                    engine_batch.BatchRequest(
                        kernel=self.kernels[k],
                        scheduler=sched_registry.make_scheduler(p),
                        cutoff_ratio=c,
                    )
                    for k, p, c in cells
                ]
                results = self.engine.run_many(requests)
            except Exception as exc:
                for _ in cells:
                    lap.fail(f"run_many: {exc!r}")
                continue
            lap.samples.append(perf() - t0)
            lap.starts.append(t0)
            done.append((cells, results))
        lap.wall_s = perf() - t_lap
        lap.ops = sum(len(c) for c in self.calls)
        for cells, results in done:
            for (k, _p, _c), r in zip(cells, results):
                lap.add(r, self.kernels[k].n_iters)
        return lap


class ProgramRegions(Workload):
    name = "program_regions"
    op = "one directive program, parse -> lower -> verify -> passes -> run"
    sample = "one program"
    #: P1 : P2 : P3 = 2 : 2 : 3.  The axpy programs take 0.8 ms, the other
    #: two 5 ms; with half the ops axpy the latency median would sit on the
    #: gap between the two groups and jump by milliseconds from lap to lap.
    MIX = ("chain",) * 100 + ("stencil",) * 100 + ("axpy_v1", "axpy_v2") * 75

    P2_DATA = (
        "#pragma omp parallel target data device(*) "
        "map(to: u_in[0:n][0:n] partition([BLOCK],[FULL]) halo(3,3)) "
        "map(from: u_out[0:n][0:n] partition([BLOCK],[FULL]))"
    )
    P2_LOOP = "#pragma omp parallel target device(*)"
    #: The paper's Fig. 2 pragmas (examples/directives.py).
    AXPY_V1 = (
        "#pragma omp parallel target device (*) "
        "map(tofrom: y[0:n] partition([BLOCK])) "
        "map(to: x[0:n] partition([BLOCK]), a, n) "
        "distribute dist_schedule(target:[ALIGN(x)])"
    )
    AXPY_V2 = (
        "#pragma omp parallel target device (*) "
        "map(tofrom: y[0:n] partition([ALIGN(loop)])) "
        "map(to: x[0:n] partition([ALIGN(loop)]), a, n) "
        "distribute dist_schedule(target:[AUTO])"
    )

    def build(self) -> None:
        self.rt = HompRuntime(full_node(), execute_numerically=False)
        self.chain, _ref = blas_chain.two_kernel_chain(1500, seed=self.seed)
        self.stencil = kernel_registry.make_kernel("stencil", 256)
        self.axpy = {
            "axpy_v1": (self.AXPY_V1, kernel_registry.make_kernel("axpy", 200_000)),
            "axpy_v2": (self.AXPY_V2, kernel_registry.make_kernel("axpy", 200_000)),
        }
        self.plan = self.shuffled(self.MIX)

    def _stencil_program(self) -> list:
        """P2: three stencil sweeps inside a Fig. 3-style data region,
        each followed by the boundary exchange the derive-halo pass
        attached to it, priced through the region's ledger view."""
        rt, k = self.rt, self.stencil
        arrays = {"u_in": k.arrays["u_in"], "u_out": k.arrays["u_out"]}
        program = ir_lower.from_directives([(self.P2_LOOP, k)] * 3)
        with rt.target_data(self.P2_DATA, arrays) as region:
            results = rt.run_program(program)
            sub = rt.machine.subset(region._ids)
            dist = DimDistribution.from_policy(
                Block(), IterRange(0, k.n_iters), len(sub)
            )
            for op in ir_passes.run_passes(program, ("derive-halo",)).ops:
                for halo in op.halos:
                    runtime_halo.plan_halo_op(
                        sub, dist, halo, residency=region.residency
                    )
        return results

    def lap(self) -> Lap:
        rt = self.rt

        def run_op(kind):
            if kind == "chain":
                return self.chain[0][1].n_iters, rt.run_program(
                    ir_lower.from_directives(self.chain)
                )
            if kind == "stencil":
                return self.stencil.n_iters, self._stencil_program()
            text, kernel = self.axpy[kind]
            return kernel.n_iters, [rt.offload(text, kernel)]

        return self.timed(self.plan, run_op)


class _Stamped:
    """Mixin: timestamp each between-batch advance of a stream kernel."""

    def stream_advance(self, batch, window):
        self.stamps.append(perf())
        return super().stream_advance(batch, window)


class _StampedSum(_Stamped, streaming.OnlineSumKernel):
    pass


class _StampedStencil(_Stamped, streaming.SlidingStencilKernel):
    pass


class StreamSteady(Workload):
    name = "stream_steady"
    op = "one stream batch"
    sample = "gap between successive stream_advance calls"
    #: (kernel class, size, batches, schedule)
    STREAMS = (
        (_StampedSum, 2000, 800, "STREAM_REBALANCE"),
        (_StampedStencil, 96, 200, "BLOCK"),
    )
    WINDOW = 64

    def build(self) -> None:
        self.rt = HompRuntime(full_node())

    def lap(self) -> Lap:
        lap = Lap(self.keep)
        done = []
        t_lap = perf()
        for cls, n, batches, schedule in self.STREAMS:
            batches = self.scaled(batches)
            kernel = cls(n, seed=self.seed)
            kernel.stamps = []
            lap.ops += batches
            try:
                sr = self.rt.stream(
                    kernel, batches=batches, window=self.WINDOW,
                    schedule=schedule,
                )
            except Exception as exc:
                for _ in range(batches):
                    lap.fail(f"{cls.__name__}: {exc!r}")
                continue
            done.append((kernel, sr))
        lap.wall_s = perf() - t_lap
        for kernel, sr in done:
            stamps = kernel.stamps
            lap.samples.extend(b - a for a, b in zip(stamps, stamps[1:]))
            for r in sr.results:
                lap.add(r, kernel.n_iters, makespan=False)
            lap.sim_s += sr.total_time_s
            if len(sr.results) != sr.batches:
                lap.fail(f"{kernel.name}: {len(sr.results)} of "
                         f"{sr.batches} batches")
            try:  # numerics are on: the last batch must match NumPy
                bench_runner.verify_result(kernel, sr.results[-1])
            except Exception as exc:
                lap.fail(f"{kernel.name}: {exc!r}")
        return lap


class _ServiceWorkload(Workload):
    """Closed loop of 8 in-process clients against one OffloadService.

    The service is started once in build() and kept up across laps; each
    client coroutine submits its next job only after the previous one
    resolved, so the offered load follows the service's own speed.
    """

    op = "one job"
    sample = "submit -> result of one job"
    CLIENTS = 8
    POLICIES: tuple[str, ...] = ()
    REPEATS = 1
    TEMPLATES = (
        WorkloadTemplate("axpy", 2048, seed=1),
        WorkloadTemplate("axpy", 2048, seed=2),
    )
    #: tenant draw slots: a is weighted 2, b and c 1 (also their WFQ weights)
    TENANTS = ("a", "a", "b", "c")

    def build(self) -> None:
        self.machine = gpu4_node()
        combos = itertools.product(self.TEMPLATES, self.POLICIES, self.TENANTS)
        self.plan = self.shuffled(list(combos) * self.REPEATS)
        self.loop = asyncio.new_event_loop()
        self.svc = OffloadService(
            self.machine,
            pool_size=2,
            use_cache=False,
            quotas={
                "a": TenantQuota(weight=2.0),
                "b": TenantQuota(),
                "c": TenantQuota(),
            },
        )
        self.loop.run_until_complete(self.svc.start())

    def close(self) -> None:
        self.loop.run_until_complete(self.svc.close())
        self.loop.close()

    def jobs(self) -> list[OffloadJob]:
        return [
            OffloadJob(
                factory=template, policy=policy, tenant=tenant,
                tag=f"job-{i}", seed=template.seed, verify=True,
            )
            for i, (template, policy, tenant) in enumerate(self.plan)
        ]

    def direct_seconds(self) -> float:
        """The same jobs as plain verified parallel_for calls, per job —
        the baseline ``service.overhead_us_per_job`` subtracts."""
        runtimes: dict[int, HompRuntime] = {}
        jobs = self.jobs()
        t0 = perf()
        for job in jobs:
            rt = runtimes.get(job.seed)
            if rt is None:
                rt = runtimes[job.seed] = HompRuntime(self.machine, seed=job.seed)
            kernel = job.factory()
            result = rt.parallel_for(
                kernel, schedule=job.policy, cutoff_ratio=job.cutoff_ratio
            )
            bench_runner.verify_result(kernel, result)
        return (perf() - t0) / len(jobs)

    async def _serve(self, jobs, lap: Lap, outcomes: list) -> None:
        pending = iter(jobs)

        async def client() -> None:
            for job in pending:
                t0 = perf()
                try:
                    handle = await self.svc.submit(job)
                    outcome = await handle
                except Exception as exc:  # refused at admission
                    lap.extra["rejected"] = lap.extra.get("rejected", 0) + 1
                    lap.fail(f"{job.tag}: {exc!r}")
                    continue
                lap.samples.append(perf() - t0)
                outcomes.append(outcome)

        await asyncio.gather(*(client() for _ in range(self.CLIENTS)))

    def lap(self) -> Lap:
        lap = Lap(self.keep)
        jobs = self.jobs()
        outcomes: list = []
        runs0 = self.svc.metrics.counter_value("service_engine_runs")
        t_lap = perf()
        self.loop.run_until_complete(self._serve(jobs, lap, outcomes))
        lap.wall_s = perf() - t_lap
        lap.ops = len(jobs)
        runs = self.svc.metrics.counter_value("service_engine_runs") - runs0

        seen: dict[str, int] = {}
        for out in outcomes:
            seen[out.job.tag] = seen.get(out.job.tag, 0) + 1
        duplicated = sum(n - 1 for n in seen.values())
        rejected = int(lap.extra.get("rejected", 0))
        lost = len(jobs) - rejected - len(seen)
        for _ in range(duplicated):
            lap.fail("a job resolved twice")
        for _ in range(lost):
            lap.fail("a job never resolved")
        n_iters = self.TEMPLATES[0].n
        for out in sorted(outcomes, key=lambda o: int(o.job.tag[4:])):
            if not out.ok:  # failed, expired or cancelled
                lap.fail(f"{out.job.tag}: {out.state.value} {out.error!r}")
                continue
            lap.add(out.result, n_iters)
        ok = [o for o in outcomes if o.ok]
        lap.extra.update(
            rejected=rejected, lost=lost, duplicated=duplicated,
            engine_runs=runs,
            coalesced=sum(1 for o in ok if o.coalesced),
            batch_size_sum=sum(o.batch_size for o in ok),
            completed=len(ok),
        )
        lap.series["queue_wait_s"] = [o.queue_wait_s for o in ok]
        lap.series["run_s"] = [o.finished_at - o.started_at for o in ok]
        return lap


class ServiceSolo(_ServiceWorkload):
    name = "service_solo"
    POLICIES = TIMING_POLICIES
    REPEATS = 14  # x 24 combinations = 336 jobs per lap


class ServiceShared(_ServiceWorkload):
    name = "service_shared"
    POLICIES = VECTOR_POLICIES
    REPEATS = 23  # x 40 combinations = 920 jobs per lap


class GridFig5(Workload):
    name = "grid_fig5"
    op = "one verified run_cell of the Fig. 5 grid"
    sample = "one run_cell call"
    SIZES = (
        ("axpy", 500_000), ("sum", 1_000_000), ("matvec", 1000),
        ("matmul", 192), ("stencil", 256), ("bm", 128),
    )
    SWEEPS = 5  # x 42 cells = 210 ops per lap

    def build(self) -> None:
        self.machine = gpu4_node()
        self.factories = {
            k: WorkloadTemplate(k, n, seed=self.seed) for k, n in self.SIZES
        }
        self.n_iters = {k: f().n_iters for k, f in self.factories.items()}
        # The grid runs in run_grid's own order (kernel-major), not a
        # seeded one: which 8 MB kernels are alive together — and so peak
        # RSS and page-fault cost — follows the order, and a seed must not
        # move those.  The seed picks the kernels' input data.
        cells = list(itertools.product(self.factories, TABLE2)) * self.SWEEPS
        self.plan = cells[: self.scaled(len(cells))]

    def lap(self) -> Lap:
        def run_op(op):  # run_cell verifies against the serial reference
            kname, policy = op
            return self.n_iters[kname], [bench_runner.run_cell(
                self.machine, self.factories[kname], policy, verify=True
            )]

        return self.timed(self.plan, run_op)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (
        OneshotMix, ChunkHeavy, BatchCells, ProgramRegions, StreamSteady,
        ServiceSolo, ServiceShared, GridFig5,
    )
}


def median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0
