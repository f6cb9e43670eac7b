"""Tests for the shared execution core: lifecycle state machine, engine
names and options, engine reuse and the re-entrancy guard."""

import threading

import pytest

from repro.engine.core import (
    ChunkPhase,
    LIFECYCLE,
    StageTiming,
    make_backend,
)
from repro.engine.simulator import OffloadEngine
from repro.errors import EngineBusyError, OffloadError
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.sched.registry import make_scheduler
from repro.util.ranges import IterRange


def _tm() -> StageTiming:
    return StageTiming(chunk=IterRange(0, 10))


# ------------------------------------------------------- state machine


class TestLifecycle:
    def test_every_phase_has_a_transition_entry(self):
        assert set(LIFECYCLE) == set(ChunkPhase)

    def test_terminal_phases_have_no_exits(self):
        for terminal in (ChunkPhase.DONE, ChunkPhase.LOST, ChunkPhase.QUARANTINE):
            assert LIFECYCLE[terminal] == frozenset()

    def test_happy_path(self):
        tm = _tm()
        for phase in (
            ChunkPhase.SCHED, ChunkPhase.XFER_IN, ChunkPhase.COMPUTE,
            ChunkPhase.XFER_OUT, ChunkPhase.OBSERVE, ChunkPhase.DONE,
        ):
            tm.advance(phase)
        assert tm.phase is ChunkPhase.DONE

    def test_retry_loop_and_requeue(self):
        tm = _tm()
        tm.advance(ChunkPhase.SCHED)
        tm.advance(ChunkPhase.XFER_IN)
        tm.advance(ChunkPhase.RETRY)
        tm.advance(ChunkPhase.XFER_IN)  # retry resumes the transfer
        tm.advance(ChunkPhase.REQUEUE)  # retries exhausted
        tm.advance(ChunkPhase.QUARANTINE)
        assert tm.phase is ChunkPhase.QUARANTINE

    def test_requeue_can_resume(self):
        tm = _tm()
        tm.advance(ChunkPhase.SCHED)
        tm.advance(ChunkPhase.XFER_IN)
        tm.advance(ChunkPhase.REQUEUE)
        tm.advance(ChunkPhase.REQUEST)  # device survives, resumes serially
        assert tm.phase is ChunkPhase.REQUEST

    def test_illegal_transition_raises(self):
        tm = _tm()
        with pytest.raises(OffloadError, match="illegal chunk lifecycle"):
            tm.advance(ChunkPhase.DONE)

    def test_skipping_compute_raises(self):
        tm = _tm()
        tm.advance(ChunkPhase.SCHED)
        tm.advance(ChunkPhase.XFER_IN)
        with pytest.raises(OffloadError, match="xfer_in -> xfer_out"):
            tm.advance(ChunkPhase.XFER_OUT)


# ------------------------------------------------------------ registry


class TestRegistry:
    """make_backend's closed name table: "virtual" and "batch" name
    OffloadEngine, and nothing else is a name."""

    def test_both_backends_registered(self):
        assert type(make_backend("virtual", gpu4_node())) is OffloadEngine
        with pytest.raises(OffloadError, match="unknown engine"):
            make_backend("threaded", gpu4_node())

    def test_batch_backend_registered_without_aliases(self):
        # "batch" names the virtual engine, not a backend of its own:
        # run_many is one of OffloadEngine's two entry points.
        assert type(make_backend("batch", gpu4_node())) is OffloadEngine
        assert callable(OffloadEngine.run_many)
        for gone in ("vectorized", "vec"):
            with pytest.raises(OffloadError, match="unknown engine"):
                make_backend(gone, gpu4_node())

    @pytest.mark.parametrize("name", [
        "sim", "simulated", "simulator", "wall", "threads", "cluster",
        "VIRTUAL", " threaded ",
    ])
    def test_removed_names_rejected(self, name):
        with pytest.raises(OffloadError) as exc:
            make_backend(name, gpu4_node())
        assert "pass 'virtual' or an OffloadEngine subclass" in str(exc.value)

    def test_class_resolves_to_itself(self):
        class Sub(OffloadEngine):
            pass

        assert type(make_backend(OffloadEngine, gpu4_node())) is OffloadEngine
        assert type(make_backend(Sub, gpu4_node())) is Sub

    def test_engine_instance_is_not_a_name(self):
        with pytest.raises(OffloadError, match="unknown engine"):
            make_backend(OffloadEngine(machine=gpu4_node()), gpu4_node())

    def test_unknown_name_lists_registered(self):
        with pytest.raises(OffloadError, match="virtual"):
            make_backend("gpu-direct", gpu4_node())


class TestMakeBackend:
    def test_builds_virtual_with_its_options(self):
        eng = make_backend(
            "virtual", gpu4_node(), seed=3, serialize_offload=True,
        )
        assert isinstance(eng, OffloadEngine)
        assert eng.seed == 3
        assert eng.serialize_offload is True

    @pytest.mark.parametrize("value", [0, False, None, "", 1, True])
    def test_unknown_option_raises_whatever_its_value(self, value):
        with pytest.raises(OffloadError, match="no option bogus"):
            make_backend("virtual", gpu4_node(), bogus=value)

    @pytest.mark.parametrize("seed", [True, 2.5, "1"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(OffloadError, match="seed must be an int"):
            make_backend("virtual", gpu4_node(), seed=seed)
        eng = make_backend("virtual", gpu4_node(), seed=5)
        with pytest.raises(OffloadError, match="seed must be an int"):
            with eng.configured(seed=seed):
                pass  # pragma: no cover - the lease is refused
        assert eng.seed == 5

    def test_unified_memory_model_is_not_an_option(self):
        eng = make_backend("virtual", gpu4_node())
        with pytest.raises(OffloadError, match="no option unified_model"):
            with eng.configured(unified_model=None):
                pass  # pragma: no cover - the lease is refused

    def test_truthy_unsupported_names_the_backend(self):
        with pytest.raises(OffloadError, match="OffloadEngine"):
            make_backend("virtual", gpu4_node(), double_buffering=True)

    @pytest.mark.parametrize("value", [0, None, 1])
    def test_configured_refuses_an_unknown_option(self, value):
        eng = make_backend("virtual", gpu4_node(), seed=5)
        with pytest.raises(OffloadError, match="no option bogus"):
            with eng.configured(seed=9, bogus=value):
                pass  # pragma: no cover - the lease is refused
        assert eng.seed == 5  # nothing was applied


# ------------------------------------------------- reuse & re-entrancy


@pytest.mark.parametrize("backend", ["virtual"])
def test_engine_instance_is_reusable_sequentially(backend):
    eng = make_backend(backend, gpu4_node(), seed=0, record_events=True)
    k1 = make_kernel("sum", 40_000, seed=1)
    r1 = eng.run(k1, make_scheduler("SCHED_DYNAMIC"))
    log1 = eng.timeline.events
    k2 = make_kernel("sum", 40_000, seed=1)
    r2 = eng.run(k2, make_scheduler("BLOCK"))
    # Per-run state lives in the run context: the second run does not
    # accumulate into the first's accounting.
    assert sum(t.iters for t in r1.traces) == 40_000
    assert sum(t.iters for t in r2.traces) == 40_000
    assert log1  # record_events captured the first run
    # The introspection slot now shows the second run, fully covered.
    assert sum(len(e.chunk) for e in eng.timeline.events) == 40_000


def test_reentrant_run_raises_engine_busy():
    eng = OffloadEngine(machine=gpu4_node(), seed=0)

    class Reenter:
        notation = "reenter"
        supports_cutoff = False

        def start(self, ctx):
            self._served = False

        def next(self, devid):
            # Re-enter run() on the same engine from inside the first run.
            with pytest.raises(EngineBusyError):
                eng.run(
                    make_kernel("sum", 1_000, seed=0),
                    make_scheduler("BLOCK"),
                )
            if self._served:
                return None
            self._served = True
            return IterRange(0, 1_000) if devid == 0 else None

        def observe(self, devid, chunk, elapsed):
            pass

        def at_barrier(self):
            pass

        def requeue(self, chunk):
            return False

        def device_lost(self, devid):
            return []

        def describe(self):
            return "reenter"

    eng.run(make_kernel("sum", 1_000, seed=0), Reenter())


@pytest.mark.parametrize("backend", ["virtual"])
def test_refused_run_does_not_touch_its_scheduler(backend):
    """The gate is taken before the run context (whose constructor calls
    ``scheduler.start``) is built: re-entering ``run`` with the *same*
    scheduler instance is refused without restarting the scheduler the
    in-flight run is being served from."""
    eng = make_backend(backend, gpu4_node(), seed=0)
    kernel = make_kernel("sum", 10_000, seed=0)

    class Wrap:
        supports_cutoff = False

        def __init__(self):
            self.inner = make_scheduler("SCHED_DYNAMIC")
            self.starts = 0
            self.asked = 0
            self.refused = 0

        def start(self, ctx):
            self.starts += 1
            self.inner.start(ctx)

        def next(self, devid):
            self.asked += 1
            if self.asked == 3:  # mid-run: two chunks are already out
                with pytest.raises(EngineBusyError):
                    eng.run(kernel, self)
                self.refused += 1
            return self.inner.next(devid)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    wrap = Wrap()
    result = eng.run(kernel, wrap)
    assert wrap.refused == 1
    assert wrap.starts == 1
    assert sum(t.iters for t in result.traces) == 10_000


def test_concurrent_runs_on_one_engine_rejected():
    eng = OffloadEngine(machine=gpu4_node(), seed=0)
    release = threading.Event()
    started = threading.Event()
    errors = []

    class Hold:
        notation = "hold"
        supports_cutoff = False

        def start(self, ctx):
            self._served = False

        def next(self, devid):
            started.set()
            release.wait(timeout=10.0)
            if self._served:
                return None
            self._served = True
            return IterRange(0, 1_000) if devid == 0 else None

        def observe(self, devid, chunk, elapsed):
            pass

        def at_barrier(self):
            pass

        def requeue(self, chunk):
            return False

        def device_lost(self, devid):
            return []

        def describe(self):
            return "hold"

    def first():
        try:
            eng.run(make_kernel("sum", 1_000, seed=0), Hold())
        except Exception as exc:  # pragma: no cover - diagnostic path
            errors.append(exc)

    t = threading.Thread(target=first)
    t.start()
    assert started.wait(timeout=10.0)
    try:
        with pytest.raises(EngineBusyError):
            eng.run(make_kernel("sum", 1_000, seed=0), make_scheduler("BLOCK"))
    finally:
        release.set()
        t.join(timeout=10.0)
    assert not errors


def test_failed_run_leaves_engine_usable():
    eng = OffloadEngine(machine=gpu4_node(), seed=0)

    class Short:
        notation = "short"
        supports_cutoff = False

        def start(self, ctx):
            self._served = False

        def next(self, devid):
            if self._served:
                return None
            self._served = True
            return IterRange(0, 10) if devid == 0 else None  # undercovers

        def observe(self, devid, chunk, elapsed):
            pass

        def at_barrier(self):
            pass

        def requeue(self, chunk):
            return False

        def device_lost(self, devid):
            return []

        def describe(self):
            return "short"

    with pytest.raises(OffloadError, match="covered"):
        eng.run(make_kernel("sum", 1_000, seed=0), Short())
    # The run gate was released in the finally; the engine still works.
    r = eng.run(make_kernel("sum", 1_000, seed=0), make_scheduler("BLOCK"))
    assert sum(t.iters for t in r.traces) == 1_000


@pytest.mark.parametrize("backend", [OffloadEngine])
def test_finished_run_is_freed_without_cyclic_gc(backend):
    """The engine hooks close over the run context; finalize drops them,
    so the context (and through it the kernel's arrays) dies with the
    engine instead of piling up until a full collection — which is what
    ``peak_rss_mb`` on the verified-grid benchmark workload measures."""
    import gc
    import weakref

    gc.disable()
    try:
        engine = backend(gpu4_node())
        engine.run(make_kernel("axpy", 4000), make_scheduler("SCHED_DYNAMIC"))
        ctx = weakref.ref(engine._run_ctx)
        del engine
        assert ctx() is None
    finally:
        gc.enable()


# ------------------------------------------- a run builds each thing once


def _count_generators(monkeypatch) -> list:
    import numpy as np

    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return made


def test_noiseless_offload_constructs_no_generator(monkeypatch):
    from repro.machine.presets import full_node
    from repro.runtime.runtime import HompRuntime

    rt = HompRuntime(full_node(), seed=3)
    kernel = make_kernel("axpy", 40_000)
    made = _count_generators(monkeypatch)
    rt.parallel_for(kernel, schedule="SCHED_DYNAMIC")
    assert made == []


def test_noisy_offload_constructs_one_generator_per_computing_device(
    monkeypatch,
):
    from dataclasses import replace

    from repro.runtime.runtime import HompRuntime

    quiet = gpu4_node()
    noisy = replace(
        quiet, devices=tuple(replace(d, noise=0.05) for d in quiet.devices)
    )
    rt = HompRuntime(noisy, seed=3)
    kernel = make_kernel("axpy", 40_000)
    made = _count_generators(monkeypatch)
    result = rt.parallel_for(kernel, schedule="SCHED_DYNAMIC", devices=[0, 1])
    computing = [t for t in result.traces if t.chunks]
    assert 1 <= len(made) <= len(computing) <= 2
    # one stream per device, from the device id and the run seed
    assert len(set(made)) == len(made)
    assert set(made) <= {((0x60D5EED + d) ^ 3,) for d in (0, 1)}
