"""HompRuntime — the entry point a HOMP program talks to.

Construction reads a machine description (a :class:`MachineSpec`, built
from presets or loaded from the JSON machine file, paper §V).  The offload
entry points are:

* :meth:`HompRuntime.parallel_for` — Python-API form: a kernel, an
  algorithm (paper notation or instance), a device selection, an optional
  CUTOFF ratio; :meth:`HompRuntime.parallel_for_many` is its batch form;
* :meth:`HompRuntime.offload` / :meth:`HompRuntime.run_program` —
  directive form: a HOMP pragma string is parsed and lowered onto the same
  machinery (device clause -> device ids, ``dist_schedule(target:...)`` ->
  scheduler, map ``partition`` entries -> kernel policy overrides);
  :meth:`HompRuntime.stream` runs one offload over many batches.

Behind all of them an offload is *bound* once (``_prepare``: devices,
engine or lease), its scheduler resolved, and each run is one pass through
the one back half (``_run_bound``: CUTOFF -> ``OffloadInfo`` ->
``engine.run`` -> ``meta`` stamp) under the lease.
"""

from __future__ import annotations

import operator
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.dist.policy import Align, Policy
from repro.engine.batch import BatchRequest
from repro.engine.core import make_backend
from repro.engine.simulator import OffloadEngine
from repro.engine.trace import OffloadResult
from repro.errors import DeviceError, OffloadError, SchedulingError
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.ir.lower import data_region, from_directive
from repro.ir.ops import (
    DataDecl,
    FusedOffloadOp,
    OffloadOp as IROffloadOp,
    Program,
    StreamOp,
)
from repro.ir.passes import normalize_maps, run_passes
from repro.ir.verify import verify_program
from repro.kernels.base import LoopKernel
from repro.lang.device_spec import parse_device_clause
from repro.lang.pragma import OffloadDirective
from repro.machine.spec import MachineSpec
from repro.memory.residency import RegionResidency, ResidencyLedger
from repro.sched.align_sched import AlignedScheduler
from repro.sched.base import LoopScheduler
from repro.sched.cutoff import default_cutoff_ratio, parse_cutoff_ratio
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.offload_info import OffloadInfo
from repro.runtime.stream import run_stream
from repro.sched.registry import SCHEDULERS, make_scheduler
from repro.sched.selector import select_algorithm

__all__ = ["HompRuntime", "OffloadSpec"]


@dataclass
class OffloadSpec:
    """One cell of a :meth:`HompRuntime.parallel_for_many` batch.

    ``execute_numerically`` overrides the runtime-level flag per cell
    (None = inherit) — the sweep runner executes numerics once per shared
    kernel instance and skips them for the timing-only repeats.
    """

    kernel: LoopKernel
    schedule: object = "AUTO"
    cutoff_ratio: float | str = 0.0
    execute_numerically: bool | None = None


def _shared_kernel_specs(cells) -> "list[OffloadSpec]":
    """Specs for batch ``cells`` — ``(share_key, factory, schedule,
    cutoff_ratio)`` each — that share kernels between cells of one key.

    The first cell of a key builds the kernel and executes numerics;
    later cells reuse the instance with numerics skipped (the simulated
    timeline depends only on chunk sizes, and their results are
    byte-identical either way — arrays untouched, reduction None).
    Reduction kernels execute every cell so each result carries its
    reduction value; a reduction kernel that also copies arrays out would
    double-apply them on a shared instance, so those get a fresh kernel
    per cell.
    """
    shared: dict = {}
    specs: list[OffloadSpec] = []
    for key, factory, schedule, cutoff_ratio in cells:
        kernel = shared.get(key)
        fresh = kernel is None
        if fresh:
            kernel = shared[key] = factory()
        execute = fresh or kernel.is_reduction
        if kernel.is_reduction and not fresh and any(
            m.direction.copies_out for m in kernel.effective_maps()
        ):
            kernel = factory()
        specs.append(OffloadSpec(kernel, schedule, cutoff_ratio, execute))
    return specs


@dataclass
class _Bound:
    """An offload bound to its devices and engine (``HompRuntime._prepare``)
    — bound once, run N times: ``parallel_for`` once, ``parallel_for_many``
    once per cell, a stream once per batch."""

    ids: list[int]
    engine: OffloadEngine  # bound to exactly the selected submachine
    lease: object  # context manager to hold around the run(s)
    # What each pass's OffloadInfo records beside its CUTOFF ratio.
    serialize_offload: bool
    fault_plan: FaultPlan | None
    residency: ResidencyLedger | None
    record_events: bool
    sched_kwargs: dict


@dataclass
class HompRuntime:
    """A running HOMP instance bound to one machine description."""

    machine: MachineSpec
    seed: int = 0
    execute_numerically: bool = True
    #: Per-device buffer-residency ledger shared by this runtime's
    #: target-data regions (global device ids).  Regions retain/release
    #: mapped ranges here; offloads running inside a region charge only
    #: the delta between what a chunk touches and what is resident.
    ledger: ResidencyLedger = field(default_factory=ResidencyLedger)

    def __post_init__(self) -> None:
        # A bool seed would be stamped into every result's meta as-is.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {self.seed!r}")

    @classmethod
    def from_file(cls, path, **kwargs) -> "HompRuntime":
        """Initialise from a machine description file (paper §V)."""
        return cls(machine=MachineSpec.from_file(path), **kwargs)

    def effective_device_count(self, ids: list[int] | None = None) -> int:
        """Device count for the CUTOFF default, counting all host CPUs as
        one device (the paper's "considering 2 CPUs as one host device")."""
        ids = ids if ids is not None else list(range(len(self.machine)))
        hosts = sum(1 for i in ids if self.machine[i].is_host)
        return (1 if hosts else 0) + sum(
            1 for i in ids if not self.machine[i].is_host
        )

    def select_devices(self, devices) -> list[int]:
        """Normalise a device selection: clause string, id list, or None."""
        if devices is None or devices == "*":
            return list(range(len(self.machine)))
        if isinstance(devices, str):
            return parse_device_clause(devices, self.machine)
        ids = []
        for raw in devices:
            if isinstance(raw, bool) or not hasattr(type(raw), "__index__"):
                raise DeviceError(f"device id {raw!r} is not an integer")
            ids.append(operator.index(raw))
        seen: set[int] = set()
        for i in ids:
            if not 0 <= i < len(self.machine):
                raise DeviceError(f"device id {i} out of range")
            if i in seen:
                raise DeviceError(f"device id {i} selected more than once")
            seen.add(i)
        if not ids:
            raise DeviceError("empty device selection")
        return ids

    @staticmethod
    def _lease_engine(engine, submachine: MachineSpec, run_options: dict):
        """Configuration lease on a caller-provided (pooled) engine.

        Validates the engine's type and machine binding, then returns the
        ``configured`` context manager that applies this run's options for
        the duration of the run and restores the engine's base
        configuration afterwards.
        """
        if not isinstance(engine, OffloadEngine):
            raise OffloadError(
                f"engine= expects an OffloadEngine instance, got "
                f"{type(engine).__name__}"
            )
        if engine.machine != submachine:
            raise OffloadError(
                f"pooled engine is bound to machine {engine.machine.name!r} "
                f"but this offload selects {submachine.name!r}; pool one "
                "engine per (machine, device selection)"
            )
        return engine.configured(**run_options)

    def _resolve_scheduler(
        self,
        schedule,
        kernel: LoopKernel,
        submachine: MachineSpec,
        sched_kwargs: dict,
    ) -> LoopScheduler:
        """The scheduler ``schedule`` names, built with ``sched_kwargs`` —
        which somebody must consume: they are refused beside an already
        built scheduler or an ``Align`` policy, and when the named
        algorithm's constructor does not take them."""
        if sched_kwargs and isinstance(schedule, (LoopScheduler, Align)):
            raise SchedulingError(
                f"keyword(s) {', '.join(sorted(sched_kwargs))} have no consumer: "
                f"they are not offload options and schedule={schedule!r} is "
                "already built"
            )
        if isinstance(schedule, LoopScheduler):
            return schedule
        if isinstance(schedule, Align):
            return AlignedScheduler(schedule.target, schedule.ratio)
        if isinstance(schedule, Policy):
            # Any other Table I policy is a loop schedule when its notation
            # names an algorithm (AUTO, BLOCK); FULL names none.
            if str(schedule) not in ("AUTO", *SCHEDULERS):
                raise SchedulingError(f"policy {schedule} is not a loop schedule")
            schedule = str(schedule)
        if isinstance(schedule, str):
            name = schedule.strip()
            if name.upper() == "AUTO":
                name = select_algorithm(kernel, submachine)
            try:
                return make_scheduler(name, **sched_kwargs)
            except TypeError as exc:
                raise SchedulingError(
                    f"cannot build {name} from keyword(s) "
                    f"{', '.join(sorted(sched_kwargs)) or '(none)'}: {exc}"
                ) from exc
        raise SchedulingError(f"cannot interpret schedule {schedule!r}")

    def _prepare(
        self,
        devices=None,
        *,
        engine=None,
        residency=None,
        record_events=False,
        serialize_offload=False,
        fault_plan=None,
        resilience=None,
        tracer=None,
        **sched_kwargs,
    ) -> _Bound:
        """Bind an offload — the preamble every entry point shares:
        ``select_devices -> subset -> build-or-lease engine``.

        The binding's ``lease`` is the context manager to hold around the
        run(s): a no-op for an engine built here, the ``configured`` lease
        applying this call's options for a caller-provided ``engine``.  An
        option left None is not passed on, so a pooled engine keeps its
        own; a keyword that is not an option comes back in the binding's
        ``sched_kwargs``.
        """
        ids = self.select_devices(devices)
        submachine = self.machine.subset(ids)
        run_options = {
            "seed": self.seed,
            "execute_numerically": self.execute_numerically,
            "record_events": record_events,
            "serialize_offload": serialize_offload,
        }
        for name, value in (
            ("fault_plan", fault_plan), ("resilience", resilience), ("tracer", tracer)
        ):
            if value is not None:
                run_options[name] = value
        if residency is not None:
            run_options["residency"] = RegionResidency(residency, tuple(ids))
        if engine is None:
            engine = make_backend(OffloadEngine, submachine, **run_options)
            lease = nullcontext(engine)
        else:
            lease = self._lease_engine(engine, submachine, run_options)
        return _Bound(
            ids, engine, lease,
            serialize_offload, fault_plan, residency, record_events, sched_kwargs,
        )

    def _resolve_cutoff(
        self, cutoff_ratio, scheduler: LoopScheduler, ids: list[int], where: str = ""
    ) -> float:
        """The one CUTOFF rule: ``"auto"`` (the paper's 1/ndev default) or
        a fraction in [0, 1), dropped for algorithms CUTOFF does not apply
        to.  ``where`` prefixes the error (the batch form names the cell).
        """
        if cutoff_ratio == "auto":
            ratio = default_cutoff_ratio(self.effective_device_count(ids))
        else:
            ratio = parse_cutoff_ratio(cutoff_ratio, where)
        if ratio > 0.0 and not scheduler.supports_cutoff:
            # Table II: CUTOFF applies only to the model/profile algorithms.
            ratio = 0.0
        return ratio

    # -- the back half: CUTOFF, OffloadInfo and the meta stamp, for every door

    def _request(
        self, bound: _Bound, kernel, scheduler, cutoff_ratio, ir=None, where: str = ""
    ) -> OffloadInfo:
        """One pass's ``homp_offloading_info`` (its ``cutoff_ratio`` is the
        resolved one), built from ``ir`` — the lowered ``(OffloadOp,
        decls)`` — when the offload comes from a program, else from the
        live kernel; value-identical for a faithful lowering."""
        plan = bound.fault_plan
        ratio = self._resolve_cutoff(cutoff_ratio, scheduler, bound.ids, where)
        request = dict(
            cutoff_ratio=ratio,
            serialize_offload=bound.serialize_offload,
            fault_plan=plan.describe() if plan is not None else None,
            residency=bound.residency,
        )
        if ir is not None:
            return OffloadInfo.from_ir(
                *ir, kernel, scheduler, self.machine, bound.ids, **request
            )
        return OffloadInfo.build(kernel, scheduler, self.machine, bound.ids, **request)

    @staticmethod
    def _stamp(bound: _Bound, result: OffloadResult, info: OffloadInfo):
        result.meta["device_ids"] = list(bound.ids)
        result.meta["offload_info"] = info
        if bound.record_events:
            result.meta["timeline"] = bound.engine.timeline
        return result

    def _run_bound(
        self, bound: _Bound, kernel, scheduler, cutoff_ratio, ir=None, **run_args
    ) -> OffloadResult:
        """One pass through a binding whose lease the caller holds;
        ``run_args`` are the engine's (a stream batch's ``carry_in``)."""
        info = self._request(bound, kernel, scheduler, cutoff_ratio, ir)
        result = bound.engine.run(
            kernel, scheduler, cutoff_ratio=info.cutoff_ratio, **run_args
        )
        return self._stamp(bound, result, info)

    def _offload(
        self, kernel, ir=None, *, region=None, schedule="AUTO", cutoff_ratio=0.0, **bind
    ) -> OffloadResult:
        """One offload: bind -> resolve the scheduler -> one pass under the
        lease.  Inside a target-data ``region`` both halves go through it,
        so it can add its devices, its ledger and its ``offload_s``."""
        front = self if region is None else region
        bound = front._prepare(**bind)
        scheduler = self._resolve_scheduler(
            schedule, kernel, bound.engine.machine, bound.sched_kwargs
        )
        with bound.lease:
            return front._run_bound(bound, kernel, scheduler, cutoff_ratio, ir)

    def parallel_for(
        self,
        kernel: LoopKernel,
        *,
        schedule="AUTO",
        devices=None,
        cutoff_ratio: float | str = 0.0,
        record_events: bool = False,
        serialize_offload: bool = False,
        fault_plan: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
        tracer=None,
        engine: OffloadEngine | None = None,
        **sched_kwargs,
    ) -> OffloadResult:
        """Offload one parallel loop across the selected devices.

        ``schedule`` — paper Table II notation, ``"AUTO"`` (heuristic
        selection), a :class:`Policy` (``Align``, or one whose notation
        names an algorithm: ``Auto``, ``Block``), or a scheduler
        instance.  ``cutoff_ratio`` — a fraction in [0, 1), or ``"auto"``
        for the paper's 1/ndev default.  Inside a target-data region
        (:meth:`TargetDataRegion.parallel_for
        <repro.runtime.data_env.TargetDataRegion.parallel_for>`) the
        region binds its residency ledger, so the engine charges each
        chunk only the bytes not already resident on its device.
        ``fault_plan`` —
        faults to inject (device ids in the plan index the *selected*
        devices, in selection order); ``resilience`` — retry/quarantine
        policy for those faults (defaults apply when None).  ``tracer`` —
        a :class:`repro.obs.Tracer` receiving the offload's span stream
        (None = no tracing; ``REPRO_OBS=off`` force-disables any tracer).
        ``engine`` — an already-built :class:`OffloadEngine` to run on (a
        pooled engine from :mod:`repro.service`); it must be bound to
        exactly the selected submachine, per-run options are applied
        through its ``configured`` lease hook, and results are
        byte-identical to the engine this call would otherwise construct
        (None = build one).  ``sched_kwargs`` — constructor keywords of
        the algorithm ``schedule`` names (``chunk_pct=`` ...); one nobody
        consumes raises :class:`~repro.errors.SchedulingError`.
        """
        return self._offload(
            kernel,
            schedule=schedule,
            devices=devices,
            cutoff_ratio=cutoff_ratio,
            record_events=record_events,
            serialize_offload=serialize_offload,
            fault_plan=fault_plan,
            resilience=resilience,
            tracer=tracer,
            engine=engine,
            **sched_kwargs,
        )

    @staticmethod
    def _validate_specs(specs) -> "list[OffloadSpec]":
        """Fail fast on malformed batch input, naming the offending index.

        ``parallel_for_many`` hands the whole batch to the engine; without
        this check a bad cell surfaces as an opaque attribute error deep
        inside the scheduler or the event loop.  Returns the
        normalized list so generator inputs are consumed exactly once.
        """
        try:
            items = list(specs)
        except TypeError:
            raise SchedulingError(
                f"parallel_for_many expects a list of OffloadSpec, got "
                f"{type(specs).__name__}"
            ) from None
        if not items:
            raise SchedulingError(
                "parallel_for_many: empty spec list (nothing to offload); "
                "pass at least one OffloadSpec"
            )
        for i, spec in enumerate(items):
            if not isinstance(spec, OffloadSpec):
                raise SchedulingError(
                    f"parallel_for_many: specs[{i}] is "
                    f"{type(spec).__name__}, expected OffloadSpec"
                )
            if not isinstance(spec.kernel, LoopKernel):
                raise SchedulingError(
                    f"parallel_for_many: specs[{i}].kernel is "
                    f"{type(spec.kernel).__name__}, expected a LoopKernel"
                )
            if spec.execute_numerically not in (None, True, False):
                raise SchedulingError(
                    f"parallel_for_many: specs[{i}].execute_numerically is "
                    f"{spec.execute_numerically!r}, expected True, False or "
                    "None"
                )
        return items

    def parallel_for_many(
        self,
        specs: "list[OffloadSpec]",
        *,
        devices=None,
        serialize_offload: bool = False,
        engine: OffloadEngine | None = None,
    ) -> list[OffloadResult]:
        """Offload a batch of independent loops through one engine.

        The batch form of :meth:`parallel_for`: every cell runs on the
        same device selection with the same engine configuration, and the
        whole list is handed to the engine's ``run_many`` in one call.
        Results are positionally aligned with ``specs``, byte-identical to
        :meth:`parallel_for`'s, and carry the same ``meta``.

        ``engine`` accepts an already-built engine (a pooled one), exactly
        as in :meth:`parallel_for`; the batch's options are applied
        through its ``configured`` lease for the duration of the call.
        The spec list is validated before anything runs: an empty list or
        a malformed spec raises :class:`~repro.errors.SchedulingError`
        naming the offending index instead of failing deep in the engine.
        """
        specs = self._validate_specs(specs)
        bound = self._prepare(
            devices, engine=engine, serialize_offload=serialize_offload
        )
        engine = bound.engine
        requests: list[BatchRequest] = []
        infos: list[OffloadInfo] = []
        for i, spec in enumerate(specs):
            where = f"parallel_for_many: specs[{i}]."
            try:
                scheduler = self._resolve_scheduler(
                    spec.schedule, spec.kernel, engine.machine, {}
                )
            except (SchedulingError, KeyError) as exc:
                raise SchedulingError(
                    f"{where}schedule {spec.schedule!r} cannot be resolved: "
                    f"{exc}"
                ) from exc
            info = self._request(
                bound, spec.kernel, scheduler, spec.cutoff_ratio, where=where
            )
            infos.append(info)
            requests.append(
                BatchRequest(
                    kernel=spec.kernel,
                    scheduler=scheduler,
                    cutoff_ratio=info.cutoff_ratio,
                    execute_numerically=spec.execute_numerically,
                )
            )
        with bound.lease:
            results = engine.run_many(requests)
        return [
            self._stamp(bound, result, info)
            for result, info in zip(results, infos)
        ]

    def target_data(
        self,
        directive: "str | OffloadDirective",
        arrays: dict,
    ):
        """Open a target-data region from a ``parallel target data``
        directive (paper Fig. 3, lines 1-7).

        ``arrays`` maps the directive's variable names to host ndarrays;
        scalars in the map clauses are ignored (they are trivially shared).
        Partitioned arrays (non-FULL dim-0 policy) are staged as one
        per-device share, replicated arrays in full.  Returns an *unopened*
        :class:`~repro.runtime.data_env.TargetDataRegion` (use ``with``).

        The directive lowers through the IR first (``parse -> lower ->
        verify -> normalize-maps``): duplicate map clauses of one array
        merge into a single direction-unioned entry, and the region is
        constructed from the resulting :class:`~repro.ir.ops.MapOp` set.
        """
        program = verify_program(normalize_maps(data_region(directive, arrays)))
        return TargetDataRegion.from_ir(
            self,
            program.region_maps,
            dict(arrays),
            devices=program.region_devices,
        )

    @staticmethod
    def _bind_op(op: IROffloadOp, kwargs: dict) -> dict:
        """Bind one lowered offload for execution, exactly as the
        directive path did: its partition overrides are applied to the
        kernel (and persist), serialization defaults from the op, and the
        keywords its clauses own are refused.  Returns the per-run kwargs.
        """
        for key, clause in (("devices", "device"), ("schedule", "dist_schedule")):
            if key in kwargs:
                raise OffloadError(
                    f"run_program: {key}= comes from the op's {clause}(...) "
                    "clause; lower the program with the clause you want"
                )
        for name, pol in op.partition_overrides:
            op.kernel.set_partition(name, pol)
        kwargs = dict(kwargs)
        # Without the `parallel target` composite, data distribution and
        # offloading are performed by a single host thread (paper §III.4).
        kwargs.setdefault("serialize_offload", op.serialize_offload)
        return kwargs

    def _run_op(self, op: IROffloadOp, decls, kwargs: dict, region=None):
        """Execute one lowered offload on its own schedule, and on its own
        devices unless it is a member of a fused group's ``region``."""
        kwargs = self._bind_op(op, kwargs)
        if region is None:
            kwargs["devices"] = op.devices
        return self._offload(
            op.kernel, (op, decls), region=region, schedule=op.schedule, **kwargs
        )

    def _run_fused_op(
        self,
        op: FusedOffloadOp,
        decls: "dict[str, DataDecl]",
        group: int,
        **kwargs,
    ) -> list[OffloadResult]:
        """Execute a fused group inside one implicit target-data region.

        The merged ``region_maps`` open a
        :class:`~repro.runtime.data_env.TargetDataRegion`, so the
        residency ledger holds every shared array across the members and
        elides the intermediate transfers — each member's
        ``meta["residency"]["bytes_elided"]`` reports what fusion saved.
        """
        arrays = {}
        for member in op.members:
            for name in member.map_names:
                arrays.setdefault(name, member.kernel.arrays[name])
        region = TargetDataRegion.from_ir(
            self, op.region_maps, arrays, devices=op.devices
        )
        results: list[OffloadResult] = []
        with region:
            for i, member in enumerate(op.members):
                result = self._run_op(member, decls, kwargs, region)
                result.meta["fusion"] = {
                    "group": group,
                    "member": i,
                    "arrays": sorted(arrays),
                }
                results.append(result)
        for result in results:
            result.meta["fusion"]["region_time_s"] = region.total_time_s
        return results

    def stream(
        self,
        kernel: LoopKernel,
        *,
        batches: int,
        window: int = 0,
        schedule="AUTO",
        devices=None,
        **kwargs,
    ):
        """Offload one kernel over ``batches`` data batches (Python-API
        form of the ``stream(batches=N, window=W)`` clause).

        Lowers the kernel through :mod:`repro.ir.lower` exactly as a bare
        ``parallel target`` directive would, wraps the op in the
        :class:`~repro.ir.ops.StreamOp` the ``stream`` clause produces
        (the template's maps are also the hoisted persistent data region)
        and runs it through :mod:`repro.runtime.stream`: one target-data
        region held across all batches, one engine with cross-batch carry,
        one scheduler instance (``STREAM_REBALANCE`` re-derives the split
        between batches from observed rates).  ``window`` rows are
        refreshed by the host between batches — via the kernel's
        ``stream_advance(batch, window)`` hook when it has one, else the
        leading rows of every inbound map.  A 1-batch stream degenerates
        to a literal :meth:`parallel_for`.  Returns a
        :class:`~repro.runtime.stream.StreamResult`.
        """
        for name, value, least in (("batches", batches, 1), ("window", window, 0)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchedulingError(
                    f"stream {name} must be an integer, got {value!r}"
                )
            if value < least:
                raise SchedulingError(
                    f"stream needs {name} >= {least}, got {value}"
                )
        program = from_directive(
            OffloadDirective(directives=("parallel", "target")),
            kernel,
            schedule=schedule,
        )
        template = replace(program.ops[0], devices=devices)
        op = StreamOp(
            template=template,
            batches=batches,
            window=window,
            region_maps=template.maps,
        )
        return run_stream(self, op, {d.name: d for d in program.decls}, **kwargs)

    def run_program(
        self, program: Program, *, passes=None, **kwargs
    ) -> list[OffloadResult]:
        """Execute a lowered offload program: verify -> passes -> run.

        The IR entry point (``docs/IR.md``): ``program`` comes from
        :func:`repro.ir.lower.from_directive` /
        :func:`~repro.ir.lower.from_directives`.  ``passes`` selects the
        rewrite pipeline — ``None`` runs the default (normalize-maps,
        derive-halo, fuse-adjacent-offloads), an empty tuple disables
        rewriting.  Returns one :class:`~repro.engine.trace.OffloadResult`
        per lowered offload, positionally aligned with the input ops
        (fused groups contribute one result per member; a
        :class:`~repro.ir.ops.StreamOp` contributes one
        :class:`~repro.runtime.stream.StreamResult` covering all its
        batches).  ``kwargs`` are forwarded to every
        :meth:`parallel_for` call (tracer, engine, cutoff_ratio, ...),
        except ``devices=`` and ``schedule=``: those belong to each op's
        ``device(...)`` / ``dist_schedule(...)`` clause and are refused
        with an :class:`~repro.errors.OffloadError`.

        A single-offload program produces a result byte-identical to the
        historical direct directive interpretation — pinned by the
        differential suite in ``tests/ir/test_ir_differential.py``.
        """
        verify_program(program)
        program = verify_program(run_passes(program, passes))
        decls = {d.name: d for d in program.decls}
        results: list[OffloadResult] = []
        for group, op in enumerate(program.ops):
            if isinstance(op, FusedOffloadOp):
                results.extend(self._run_fused_op(op, decls, group, **kwargs))
            elif isinstance(op, StreamOp):
                results.append(run_stream(self, op, decls, **kwargs))
            else:
                results.append(self._run_op(op, decls, kwargs))
        return results

    def offload(self, directive: str | OffloadDirective, kernel: LoopKernel,
                **kwargs) -> OffloadResult:
        """Offload a kernel under a HOMP directive string (Fig. 2 style).

        One front-end path: the directive lowers into a single-offload
        :class:`~repro.ir.ops.Program` which runs through
        :meth:`run_program` (verify -> passes -> execute).  Results are
        byte-identical to the historical direct interpretation of the
        directive.
        """
        schedule = kwargs.pop("schedule", None)
        if "devices" in kwargs:
            raise OffloadError(
                "offload: devices= comes from the directive's device(...) clause"
            )
        program = from_directive(directive, kernel, schedule=schedule)
        return self.run_program(program, **kwargs)[0]
