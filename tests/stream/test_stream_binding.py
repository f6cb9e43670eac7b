"""A stream is bound once and run N times — counted and pinned, not timed.

Host-independent budget for the stream's front door (one ``_prepare``,
one ``subset``, one ``configured`` lease for the whole stream, and a cap
on Python-level calls per batch), the contract a pooled ``engine=`` keeps
across a stream, and byte-identity pins generated at the commit before
the stream stopped re-entering ``parallel_for`` per batch.
"""

import hashlib
import pickle
import sys

import pytest

from repro.apps import OnlineSumKernel, SlidingStencilKernel
from repro.engine.core import EngineBase, make_backend
from repro.engine.simulator import OffloadEngine
from repro.faults.plan import DeviceDropout, FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.kernels.registry import make_kernel
from repro.machine.presets import full_node, gpu4_node
from repro.machine.spec import MachineSpec
from repro.obs.export import to_jsonl
from repro.obs.tracer import Tracer
from repro.runtime import HompRuntime

# ------------------------------------------------- front-door budget

#: Python-level calls per batch: each budget is the count measured when a
#: stream's batches began to share one run skeleton, plus under 3 %.
BUDGET_AXPY = 253  # 246.1 measured
BUDGET_SUM = 280  # 271.9 measured
BUDGET_STENCIL = 386  # 375.0 measured


def _counting(monkeypatch, owner, name) -> list:
    entered, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        entered.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return entered


def test_a_stream_enters_its_front_door_once(monkeypatch):
    rt = HompRuntime(gpu4_node(), execute_numerically=False)
    pooled = make_backend("virtual", gpu4_node().subset([0, 1, 2, 3]))
    counts = [
        _counting(monkeypatch, HompRuntime, "_prepare"),
        _counting(monkeypatch, MachineSpec, "subset"),
        _counting(monkeypatch, EngineBase, "configured"),
    ]
    sr = rt.stream(
        make_kernel("axpy", 20_000), batches=20, window=16, schedule="BLOCK",
        engine=pooled,
    )
    assert len(sr.results) == 20
    assert [len(c) for c in counts] == [1, 1, 1]  # 21 / 21 / 20 before


def _calls_per_batch(rt, kernel, **stream) -> float:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        sr = rt.stream(kernel, **stream)
    finally:
        sys.setprofile(None)
    return calls / len(sr.results)


def test_stream_batch_python_call_budget():
    rt = HompRuntime(gpu4_node(), execute_numerically=False)
    per_batch = _calls_per_batch(
        rt, make_kernel("axpy", 20_000), batches=20, window=16, schedule="BLOCK"
    )
    assert per_batch <= BUDGET_AXPY  # 587.6, then 469.95 before


#: The two shapes of the ``stream_steady`` benchmark workload (numerics on).
@pytest.mark.parametrize("make, schedule, budget", [
    (lambda: OnlineSumKernel(2000), "STREAM_REBALANCE", BUDGET_SUM),  # 486.4 before
    (lambda: SlidingStencilKernel(96), "BLOCK", BUDGET_STENCIL),  # 705.2 before
], ids=["online-sum", "sliding-stencil"])
def test_stream_steady_python_call_budget(make, schedule, budget):
    per_batch = _calls_per_batch(
        HompRuntime(full_node()), make(), batches=200, window=64,
        schedule=schedule,
    )
    assert per_batch <= budget


# ------------------------------------------------- a pooled engine's lease

LEASED = ("seed", "execute_numerically", "tracer", "fault_plan", "resilience",
          "residency", "record_events", "serialize_offload")


class _FailingAdvance(OnlineSumKernel):
    def stream_advance(self, batch, window):
        if batch == 2:
            raise RuntimeError("host refresh failed")
        return super().stream_advance(batch, window)


@pytest.mark.parametrize("kernel_cls", [OnlineSumKernel, _FailingAdvance])
def test_pooled_engine_is_restored_and_reusable_after_a_stream(kernel_cls):
    rt = HompRuntime(gpu4_node(), seed=3)
    pooled = OffloadEngine(  # bound as the service pool binds: rt's own subset
        machine=rt.machine.subset([0, 1, 2, 3]), seed=7, execute_numerically=False,
        resilience=ResiliencePolicy(quarantine_after=5),
    )
    before = {name: getattr(pooled, name) for name in LEASED}
    options = dict(
        batches=4, window=16, schedule="STREAM_REBALANCE", engine=pooled,
        tracer=Tracer(), record_events=True,
        fault_plan=FaultPlan.of(DeviceDropout(devid=1, t=1.0)),
    )
    if kernel_cls is _FailingAdvance:
        with pytest.raises(RuntimeError, match="host refresh failed"):
            rt.stream(kernel_cls(2000, seed=1), **options)
    else:
        assert rt.stream(kernel_cls(2000, seed=1), **options).meta["pipelined"]
    assert {name: getattr(pooled, name) for name in LEASED} == before
    assert not pooled.busy and not hasattr(pooled, "carry_in")
    assert rt.ledger.empty

    # No carry outlives the stream: the next plain offload starts cold.
    leased = rt.parallel_for(make_kernel("axpy", 4096, seed=2), engine=pooled)
    fresh = rt.parallel_for(make_kernel("axpy", 4096, seed=2))
    assert pickle.dumps(leased) == pickle.dumps(fresh)


# ------------------------------------------------- identity pins

#: blake2b-128 of each batch's pickled result, of the whole pickled
#: ``StreamResult`` and of the traced span stream, generated at de27821
#: (the per-batch ``parallel_for`` re-entry).
PINNED_BATCHES = [
    "a31adc061d17b03ad4b68f3fa622a458",
    "a9d2883d456b621217c763eebb5dac63",
    "577f3dd63c517f5205cdc607d062e024",
]
PINNED_STREAM = "f18f59b7420f8a13f453fc767a1d055a"
PINNED_SPANS = "708863c359329a509142e9a5124e60dd"


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.mark.parametrize("leased", [False, True], ids=["virtual", "leased"])
def test_faulted_traced_stream_is_byte_identical_to_the_pinned_one(leased):
    def stream(**kw):
        rt = HompRuntime(gpu4_node())
        if leased:
            kw["engine"] = OffloadEngine(machine=rt.machine.subset([0, 1, 2, 3]))
        return rt.stream(
            OnlineSumKernel(2000, seed=1), batches=3, window=16,
            schedule="STREAM_REBALANCE", **kw,
        )

    t0, t1 = (r.total_time_s for r in stream().results[:2])
    tracer = Tracer()
    sr = stream(
        fault_plan=FaultPlan.of(DeviceDropout(devid=0, t=(t0 + t1) / 2)),
        tracer=tracer, record_events=True,
    )
    # The dropout lands mid-stream: device 0 dies in batch 1.
    assert [any(t.lost for t in r.traces) for r in sr.results] == [False, True, False]
    assert all("timeline" in r.meta for r in sr.results)
    assert [
        _digest(pickle.dumps(r, protocol=4)) for r in sr.results
    ] == PINNED_BATCHES
    assert _digest(pickle.dumps(sr, protocol=4)) == PINNED_STREAM
    spans = to_jsonl(tracer)
    assert all(f'"batch": {k}' in spans for k in range(3))
    assert _digest(spans.encode()) == PINNED_SPANS


#: The same digests of a noisy stream (``gpu4_node(noise=0.05)``), generated
#: at b2d3c0b, where every batch built its devices afresh: each batch's
#: noise draws restart from the run seed, whoever keeps the devices.
PINNED_NOISY_BATCHES = [
    "4f0f7f399baedae281df6a8b5534106a",
    "bf1f6168b08e9151babf9408f8f995fb",
    "ccb6733361b9ef2529e22bd1ee74479e",
]
PINNED_NOISY_STREAM = "530793b56b8f132380d1e4e2f1ceef3e"


def test_noisy_stream_restarts_its_noise_draws_every_batch():
    sr = HompRuntime(gpu4_node(noise=0.05)).stream(
        OnlineSumKernel(2000, seed=1), batches=3, window=16,
        schedule="SCHED_DYNAMIC",
    )
    assert [
        _digest(pickle.dumps(r, protocol=4)) for r in sr.results
    ] == PINNED_NOISY_BATCHES
    assert _digest(pickle.dumps(sr, protocol=4)) == PINNED_NOISY_STREAM
