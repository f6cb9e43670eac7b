"""The virtual-time backend is pinned bit-for-bit to the pre-core engine.

The committed fixture holds the BLAKE2b checksum of one fig5 cell's
pickled :class:`~repro.engine.trace.OffloadResult`, generated *before*
the execution core was extracted.  Any drift in stage arithmetic,
accumulation order, trace buckets or meta layout changes the pickle and
fails here.  The same script runs in CI (``scripts/bit_identity_smoke.py``).
"""

import hashlib
import pickle
from pathlib import Path

import pytest

from repro.engine.batch import BatchEngine, BatchRequest
from repro.engine.simulator import OffloadEngine
from repro.faults.plan import DeviceDropout, FaultPlan, Slowdown, TransferError
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.kernels.registry import make_kernel, paper_workload
from repro.machine.presets import full_node, gpu4_node
from repro.obs.export import to_jsonl
from repro.obs.tracer import Tracer
from repro.runtime.runtime import HompRuntime
from repro.sched.registry import make_scheduler

FIXTURE = Path(__file__).parent / "fixtures" / "fig5_cell.blake2b"


def checksum(obj) -> str:
    return hashlib.blake2b(
        pickle.dumps(obj, protocol=4), digest_size=16
    ).hexdigest()


def fig5_cell() -> str:
    rt = HompRuntime(gpu4_node(), seed=0)
    kernel = paper_workload("axpy", scale=0.05, seed=0)
    result = rt.parallel_for(
        kernel, schedule="SCHED_DYNAMIC", cutoff_ratio=0.0,
    )
    return checksum(result)


def test_fig5_cell_matches_prerefactor_fixture():
    assert FIXTURE.exists(), "run scripts/bit_identity_smoke.py --update"
    assert fig5_cell() == FIXTURE.read_text().strip()


def test_traced_run_is_pickle_identical_to_untraced():
    plain = fig5_cell()
    rt = HompRuntime(gpu4_node(), seed=0)
    kernel = paper_workload("axpy", scale=0.05, seed=0)
    traced = rt.parallel_for(
        kernel, schedule="SCHED_DYNAMIC", cutoff_ratio=0.0,
        tracer=Tracer(),
    )
    assert checksum(traced) == plain


def test_faulted_run_is_deterministic():
    # Two identical engines under the same non-empty plan produce pickle-
    # identical results, faults included (the determinism the bit-identity
    # contract relies on).
    plan = FaultPlan.of(
        Slowdown(0, 3.0),
        TransferError(1, 0.2, seed=9),
        DeviceDropout(2, 0.004),
    )
    res = ResiliencePolicy(retry=RetryPolicy(max_retries=2), quarantine_after=2)

    def one() -> str:
        eng = OffloadEngine(
            machine=full_node(), seed=0, fault_plan=plan, resilience=res,
        )
        kernel = paper_workload("sum", scale=0.02, seed=0)
        return checksum(eng.run(kernel, make_scheduler("SCHED_DYNAMIC")))

    assert one() == one()


@pytest.mark.parametrize("machine_fn", [gpu4_node, full_node])
def test_virtual_runs_reproduce_across_engine_instances(machine_fn):
    def one() -> str:
        eng = OffloadEngine(machine=machine_fn(), seed=0)
        kernel = paper_workload("axpy", scale=0.02, seed=0)
        return checksum(eng.run(kernel, make_scheduler("SCHED_GUIDED")))

    assert one() == one()


def test_region_lifecycle_leaves_no_region_runs_untouched():
    """Open, use, and drain a target-data region first: a subsequent
    offload with no open region (and no ALIGN reuse) must still match the
    pre-ledger fixture bit for bit — residency state must not leak."""
    from repro.memory.space import MapDirection
    from repro.runtime.data_env import TargetDataRegion

    rt = HompRuntime(gpu4_node(), seed=0)
    warm = paper_workload("axpy", scale=0.05, seed=0)
    maps = {
        name: (arr, MapDirection.TOFROM) for name, arr in warm.arrays.items()
    }
    with TargetDataRegion(
        runtime=rt, maps=maps, partitioned=frozenset(maps)
    ) as region:
        region.parallel_for(warm, schedule="SCHED_DYNAMIC")
    assert rt.ledger.empty

    kernel = paper_workload("axpy", scale=0.05, seed=0)
    result = rt.parallel_for(kernel, schedule="SCHED_DYNAMIC", cutoff_ratio=0.0)
    assert checksum(result) == FIXTURE.read_text().strip()


# One run that visits every record the core emits: SCHED_PROFILE_AUTO
# parks devices at its barrier, device 1 is slowed, device 2's link fails
# half its attempts (retries, and with max_retries=1 failed chunks),
# device 3 dies with a chunk in flight, and only ``x`` is held resident by
# the enclosing region, so transfer spans carry ``elided=``.  The digests
# were generated before the core's emitters were folded into one per record.
PINNED_SPANS_MD5 = "8779f251f4f034272c858a111bdc2ea4"
PINNED_TIMELINE_MD5 = "6cbd663c5e4e4dae696696cc70245d72"


class _ViaRunMany(BatchEngine):
    """The batch engine's other entry point, behind ``run``'s signature."""

    def run(self, kernel, scheduler, *, cutoff_ratio=0.0):
        return self.run_many([BatchRequest(kernel, scheduler, cutoff_ratio)])[0]


@pytest.mark.parametrize("via", [None, _ViaRunMany], ids=["virtual", "_ViaRunMany"])
def test_span_stream_and_timeline_match_pinned_digests(via):
    from repro.memory.space import MapDirection
    from repro.runtime.data_env import TargetDataRegion

    rt = HompRuntime(gpu4_node())
    # None: the engine parallel_for builds; else a leased engine.
    engine = None if via is None else via(machine=rt.machine.subset([0, 1, 2, 3]))
    kernel = make_kernel("axpy", 40_000)
    region = TargetDataRegion(
        runtime=rt,
        maps={"x": (kernel.arrays["x"], MapDirection.TO)},
        partitioned=frozenset({"x"}),
    )
    tracer = Tracer()
    with region:
        result = region.parallel_for(
            kernel,
            schedule="SCHED_PROFILE_AUTO",
            engine=engine,
            fault_plan=FaultPlan.of(
                Slowdown(1, 3.0),
                TransferError(2, 0.5, seed=3),
                DeviceDropout(3, 0.0003),
            ),
            resilience=ResiliencePolicy(retry=RetryPolicy(max_retries=1)),
            tracer=tracer,
            record_events=True,
        )
    timeline = result.meta["timeline"]
    assert {e.status for e in timeline.events} == {"ok", "failed", "dropped"}
    names = {s.name for s in tracer.spans}
    assert {"barrier", "retry", "xfer_in", "xfer_out", "sched"} <= names
    assert any("elided" in dict(s.args) for s in tracer.spans)
    assert hashlib.md5(to_jsonl(tracer).encode()).hexdigest() == PINNED_SPANS_MD5
    assert (
        hashlib.md5(pickle.dumps(timeline, protocol=4)).hexdigest()
        == PINNED_TIMELINE_MD5
    )
