"""Tracing from outside: wrap the layers' public callables, keep spans.

Nothing under ``src/`` knows about this file.  :class:`Tracer.install`
resolves every row of :data:`TARGETS` (a row that no longer resolves
raises, so a rename fails loudly instead of dropping a metric), replaces
the callable with a timing wrapper, and :meth:`Tracer.remove` puts every
original back.  Three ways of finding a callable:

* ``attr``    one attribute of one class (plain, class- or static method);
* ``func``    a module-level function — patched in *every* ``repro.*``
  module namespace that holds the binding (``from x import f`` copies);
* ``family``  a method on every ``repro.*`` subclass of a base class that
  defines it in its own ``__dict__`` (schedulers' ``next``, kernels'
  ``reference``).

Every wrapper keeps, per thread, a stack of open frames; when a call
returns its duration is added to its parent frame's child time, so each
key accumulates ``calls``, ``busy`` (inclusive) and ``self`` (busy minus
the time its wrapped children covered).  Keys marked ``span`` also append
a span record (name, layer, start, end, parent id, own id) while
:attr:`Tracer.record_spans` is on; per-chunk keys only accumulate.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import json
import sys
import threading
import time

perf = time.perf_counter

#: (key, kind, finder, where...) — kind: span | acc | ctx | async.
TARGETS = (
    ("lang.parse", "span", "func", "repro.lang.pragma", "parse_directive"),
    ("ir.from_directive", "span", "func", "repro.ir.lower", "from_directive"),
    ("ir.from_directives", "span", "func", "repro.ir.lower", "from_directives"),
    ("ir.verify", "span", "func", "repro.ir.verify", "verify_program"),
    ("ir.passes", "span", "func", "repro.ir.passes", "run_passes"),
    ("runtime.parallel_for", "span", "attr", "repro.runtime.runtime", "HompRuntime", "parallel_for"),
    ("runtime.parallel_for_many", "span", "attr", "repro.runtime.runtime", "HompRuntime", "parallel_for_many"),
    ("runtime.run_program", "span", "attr", "repro.runtime.runtime", "HompRuntime", "run_program"),
    ("runtime.info_build", "span", "attr", "repro.runtime.offload_info", "OffloadInfo", "build"),
    ("runtime.info_from_ir", "span", "attr", "repro.runtime.offload_info", "OffloadInfo", "from_ir"),
    ("runtime.region_enter", "span", "attr", "repro.runtime.data_env", "TargetDataRegion", "__enter__"),
    ("runtime.region_exit", "span", "attr", "repro.runtime.data_env", "TargetDataRegion", "__exit__"),
    ("runtime.halo_plan", "span", "func", "repro.runtime.halo", "plan_halo_op"),
    ("runtime.run_stream", "span", "func", "repro.runtime.stream", "run_stream"),
    ("machine.subset", "span", "attr", "repro.machine.spec", "MachineSpec", "subset"),
    ("machine.to_dict", "span", "attr", "repro.machine.spec", "MachineSpec", "to_dict"),
    ("sched.make", "span", "func", "repro.sched.registry", "make_scheduler"),
    ("sched.select", "span", "func", "repro.sched.selector", "select_algorithm"),
    ("sched.start", "span", "family", "repro.sched.base", "LoopScheduler", "start"),
    ("sched.cutoff", "span", "func", "repro.sched.cutoff", "apply_cutoff"),
    ("sched.next", "acc", "family", "repro.sched.base", "LoopScheduler", "next"),
    ("sched.observe", "acc", "family", "repro.sched.base", "LoopScheduler", "observe"),
    ("model.solve", "span", "func", "repro.model.linear_system", "solve_equal_time_partition"),
    ("engine.make_backend", "span", "func", "repro.engine.core", "make_backend"),
    ("engine.configured", "ctx", "attr", "repro.engine.core", "EngineBase", "configured"),
    ("engine.run_ctx_init", "span", "attr", "repro.engine.core", "RunContext", "__init__"),
    ("engine.run", "span", "attr", "repro.engine.simulator", "OffloadEngine", "run"),
    ("engine.run_many", "span", "attr", "repro.engine.batch", "BatchEngine", "run_many"),
    ("engine.begin_chunk", "acc", "attr", "repro.engine.core", "RunContext", "begin_chunk"),
    ("engine.chunk_bytes", "acc", "attr", "repro.engine.core", "RunContext", "chunk_bytes"),
    ("engine.account_chunk", "acc", "attr", "repro.engine.core", "RunContext", "account_chunk"),
    ("engine.commit_chunk", "acc", "attr", "repro.engine.core", "RunContext", "commit_chunk"),
    ("engine.finalize", "span", "attr", "repro.engine.core", "RunContext", "finalize"),
    ("memory.charge_chunk", "acc", "attr", "repro.memory.residency", "RegionResidency", "charge_chunk"),
    ("memory.retain", "acc", "attr", "repro.memory.residency", "ResidencyLedger", "retain"),
    ("memory.release", "acc", "attr", "repro.memory.residency", "ResidencyLedger", "release"),
    ("memory.invalidate", "acc", "attr", "repro.memory.residency", "ResidencyLedger", "invalidate"),
    ("memory.plan_derive", "span", "attr", "repro.memory.residency", "DataPlacementPlan", "derive"),
    ("kernels.make", "span", "func", "repro.kernels.registry", "make_kernel"),
    ("kernels.chunk_cost", "acc", "attr", "repro.kernels.base", "LoopKernel", "chunk_cost"),
    ("kernels.execute_chunk", "acc", "attr", "repro.kernels.base", "LoopKernel", "execute_chunk"),
    ("kernels.reference", "span", "family", "repro.kernels.base", "LoopKernel", "reference"),
    ("bench.verify", "span", "func", "repro.bench.runner", "verify_result"),
    ("bench.run_cell", "span", "func", "repro.bench.runner", "run_cell"),
    ("bench.run_one", "span", "func", "repro.bench.runner", "run_one"),
    ("service.submit", "async", "attr", "repro.service.service", "OffloadService", "submit"),
    ("service.admit", "acc", "attr", "repro.service.admission", "AdmissionController", "admit"),
    ("service.release", "acc", "attr", "repro.service.admission", "AdmissionController", "release"),
    ("service.wfq_push", "acc", "attr", "repro.service.admission", "WeightedFairQueue", "push"),
    ("service.wfq_pop", "acc", "attr", "repro.service.admission", "WeightedFairQueue", "pop"),
    ("service.pop_matching", "acc", "attr", "repro.service.admission", "WeightedFairQueue", "pop_matching"),
    ("service.pool_acquire", "async", "attr", "repro.service.pool", "EnginePool", "acquire"),
    ("service.plan_group", "span", "func", "repro.service.coalesce", "plan_group"),
    ("service.group_key", "acc", "func", "repro.service.coalesce", "group_key"),
)

#: Calls of the first key made while a frame of the second is open are
#: also counted under "<first>@<second>" (batch cells delegated to the
#: scalar engine).
NESTED_COUNTS = {"engine.run": "engine.run_many"}

#: Keys whose accumulator also sums a size taken from the call's result.
UNITS = {
    "engine.run_many": len,
    "runtime.parallel_for_many": len,
}


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(base):
    out, todo = [base], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return [c for c in out if c.__module__.startswith("repro.")]


class Tracer:
    def __init__(self) -> None:
        self.installed: list[tuple[object, str, object]] = []
        self.record_spans = False
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._threads: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()

    # -- per-thread state -----------------------------------------------------

    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.acc
        except AttributeError:
            tls.stack = []
            tls.acc = collections.defaultdict(lambda: [0, 0.0, 0.0, 0])
            with self._lock:
                self._threads.append(tls.acc)
            return tls.stack, tls.acc

    def totals(self) -> dict[str, list[float]]:
        """key -> [calls, busy_s, self_s, units], summed over threads."""
        out: dict[str, list[float]] = {}
        with self._lock:
            for acc in self._threads:
                for key, row in list(acc.items()):
                    into = out.setdefault(key, [0, 0.0, 0.0, 0])
                    for i, v in enumerate(row):
                        into[i] += v
        return out

    def reset(self) -> None:
        with self._lock:
            for acc in self._threads:
                acc.clear()
        self.spans.clear()

    # -- wrappers ---------------------------------------------------------------

    def _sync(self, fn, key: str, span: bool, family: bool):
        state, ids = self._state, self._ids
        layer = key.split(".", 1)[0]
        under = NESTED_COUNTS.get(key)
        units = UNITS.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            stack, acc = state()
            # A family method reached through super() (or a nested
            # reference()) is one call of the layer, not two.
            outer = not (family and any(f[0] == key for f in stack))
            if under is not None and any(f[0] == under for f in stack):
                acc[key + "@" + under][0] += 1
            sid = parent = None
            if span and tracer.record_spans:
                sid = next(ids)
                for f in reversed(stack):
                    if f[2] is not None:
                        parent = f[2]
                        break
            frame = [key, 0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                row = acc[key]
                if outer:
                    row[0] += 1
                row[1] += dur if outer else 0.0
                row[2] += dur - frame[1]
                if sid is not None:
                    tracer.spans.append(
                        (key, layer, t0, t1, parent, sid)
                    )
            if units is not None:
                row[3] += units(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _ctx(self, fn, key: str):
        """Wrap a context-manager factory: time enter + exit, not the body."""
        state = self._state

        class Timed:
            def __init__(self, inner):
                self.inner = inner

            def _charge(self, dur: float, calls: int) -> None:
                stack, acc = state()
                if stack:
                    stack[-1][1] += dur
                row = acc[key]
                row[0] += calls
                row[1] += dur
                row[2] += dur

            def __enter__(self):
                t0 = perf()
                try:
                    return self.inner.__enter__()
                finally:
                    self._charge(perf() - t0, 1)

            def __exit__(self, *exc):
                t0 = perf()
                try:
                    return self.inner.__exit__(*exc)
                finally:
                    self._charge(perf() - t0, 0)

        def wrapper(*args, **kwargs):
            t0 = perf()
            inner = fn(*args, **kwargs)
            timed = Timed(inner)
            timed._charge(perf() - t0, 0)
            return timed

        wrapper.__wrapped__ = fn
        return wrapper

    def _async(self, fn, key: str):
        """Wrap a coroutine function: wall time from call to result.

        No frame is pushed — a suspended coroutine would leave it on the
        thread's stack while other tasks run — so the figure is inclusive
        (for ``EnginePool.acquire`` it *is* the wait for a pool slot).
        """
        state = self._state

        async def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                _stack, acc = state()
                row = acc[key]
                row[0] += 1
                row[1] += dur
                row[2] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, raw, key: str, kind: str, family: bool = False):
        """Wrap ``raw`` (as found in a ``__dict__``), keeping its binding."""
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if binder else raw
        if kind == "ctx":
            wrapped = self._ctx(fn, key)
        elif kind == "async":
            wrapped = self._async(fn, key)
        else:
            wrapped = self._sync(fn, key, kind == "span", family)
        return binder(wrapped) if binder else wrapped

    # -- install / remove -------------------------------------------------------

    def _patch(self, owner, name: str, new) -> None:
        self.installed.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every target; raises LookupError naming one that is gone."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        try:
            for key, kind, finder, modname, *where in TARGETS:
                try:
                    module = importlib.import_module(modname)
                    if finder == "func":
                        (name,) = where
                        original = vars(module)[name]
                        wrapped = self._wrap(original, key, kind)
                        for mod in _repro_modules():
                            for attr, val in list(vars(mod).items()):
                                if val is original:
                                    self._patch(mod, attr, wrapped)
                        continue
                    clsname, name = where
                    cls = vars(module)[clsname]
                    owners = _subclasses(cls) if finder == "family" else [cls]
                    owners = [
                        c for c in owners
                        if name in vars(c) and not getattr(
                            vars(c)[name], "__isabstractmethod__", False
                        )
                    ]
                    if not owners:
                        raise KeyError(name)
                    for owner in owners:
                        self._patch(
                            owner, name,
                            self._wrap(vars(owner)[name], key, kind,
                                       family=finder == "family"),
                        )
                except (ImportError, KeyError) as exc:
                    raise LookupError(
                        f"traced callable for {key!r} no longer resolves: "
                        f"{modname}.{'.'.join(where)} ({exc!r})"
                    ) from exc
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self.installed:
            owner, name, original = self.installed.pop()
            setattr(owner, name, original)

    def write_spans(self, path, op_of) -> None:
        """One JSON object per span; ``op_of(start)`` names the op (the
        lap driver knows when each op began; -1 = not attributable)."""
        with open(path, "w") as fh:
            for key, layer, t0, t1, parent, sid in self.spans:
                fh.write(json.dumps({
                    "name": key, "layer": layer, "start": t0, "end": t1,
                    "parent": parent, "op": op_of(t0), "id": sid,
                }) + "\n")
