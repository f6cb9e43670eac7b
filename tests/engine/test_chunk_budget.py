"""The per-chunk path costs what its work is — counted, not timed.

Host-independent budgets for the two places a chunk spends its time: the
residency ledger (interpreter line events inside ``memory/residency.py`` per
in-region chunk must not grow with the number of chunks) and the event loop
(Python-level calls per plain and per in-region chunk), plus the contracts
the cheaper path must keep: the ``chunk_cost`` memo dies with the constants
it was priced from, every lifecycle transition is still checked, the device
cost model draws the same noise stream, and the runs on the edges of the
event loop's per-lane price table stay byte-equal.
"""

import hashlib
import pickle
import sys
from dataclasses import replace

import pytest

from repro.dist.policy import Block
from repro.engine.core import LIFECYCLE, ChunkPhase, StageTiming
from repro.engine.simulator import OffloadEngine
from repro.errors import OffloadError
from repro.faults.plan import FaultPlan, Slowdown, TransferError
from repro.kernels.registry import make_kernel
from repro.machine.device import Device
from repro.machine.presets import full_node, gpu4_node, k40_spec, k40_unified_spec
from repro.machine.spec import MachineSpec
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.runtime import HompRuntime
from repro.sched.registry import make_scheduler
from repro.util.ranges import IterRange


def _offload(rt, kernel, chunk_pct, *, in_region):
    if not in_region:
        return rt.parallel_for(kernel, schedule="SCHED_DYNAMIC", chunk_pct=chunk_pct)
    maps = kernel.effective_maps()
    region = TargetDataRegion(
        runtime=rt,
        maps={m.name: (kernel.arrays[m.name], m.direction) for m in maps},
        partitioned=frozenset(m.name for m in maps if m.partitioned),
    )
    with region:
        return region.parallel_for(
            kernel, schedule="SCHED_DYNAMIC", chunk_pct=chunk_pct
        )


def _chunks(result) -> int:
    return sum(t.chunks for t in result.traces)


@pytest.fixture(scope="module")
def axpy():
    return HompRuntime(full_node(), execute_numerically=False), make_kernel(
        "axpy", 200_000
    )


# ------------------------------------------------- (i) ledger scaling


def _residency_lines_per_chunk(rt, kernel, chunk_pct) -> float:
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    def only_residency(frame, event, arg):
        if frame.f_code.co_filename.endswith("memory/residency.py"):
            return count
        return None

    sys.settrace(only_residency)
    try:
        result = _offload(rt, kernel, chunk_pct, in_region=True)
    finally:
        sys.settrace(None)
    return lines / _chunks(result)


def test_ledger_work_per_chunk_does_not_grow_with_the_chunk_count(axpy):
    """SCHED_DYNAMIC fragments every validity list into hundreds of spans;
    a chunk's charge must still cost O(maps x devices x log spans)."""
    coarse = _residency_lines_per_chunk(*axpy, 0.002)  # 500 chunks
    fine = _residency_lines_per_chunk(*axpy, 0.00025)  # 4,000 chunks
    assert fine <= 1.5 * coarse, (coarse, fine)  # 4,165 -> 28,283 before


# ------------------------------------------------- (ii) loop call budget


def _python_calls_per_chunk(rt, kernel, chunk_pct, *, in_region) -> float:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        result = _offload(rt, kernel, chunk_pct, in_region=in_region)
    finally:
        sys.setprofile(None)
    return calls / _chunks(result)


#: Per chunk_pct: measured 8.59-8.70 and 8.07 (13.9-14.3 before the price
#: table and the one commit call; 51.9, then 21.3 before that).
_PLAIN_BUDGET = {0.002: 9.0, 0.00025: 8.4}


@pytest.mark.parametrize("chunk_pct", [0.002, 0.00025])
def test_plain_chunk_python_call_budget(axpy, chunk_pct):
    calls = _python_calls_per_chunk(*axpy, chunk_pct, in_region=False)
    assert calls <= _PLAIN_BUDGET[chunk_pct]


#: Per chunk_pct: measured 20.20 and 17.97 (39.8 and 37.9 before the
#: holder map and the one commit call).
_IN_REGION_BUDGET = {0.002: 21.2, 0.00025: 18.8}


@pytest.mark.parametrize("chunk_pct", [0.002, 0.00025])
def test_in_region_chunk_python_call_budget(axpy, chunk_pct):
    calls = _python_calls_per_chunk(*axpy, chunk_pct, in_region=True)
    assert calls <= _IN_REGION_BUDGET[chunk_pct]


@pytest.mark.parametrize("chunk_pct", [0.002, 0.00025])
def test_plain_chunk_c_call_budget(axpy, chunk_pct):
    """Builtin calls per chunk: heap pop/push and the price-table lookup —
    ``max`` and ``min`` are spelled out."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "c_call"

    sys.setprofile(count)
    try:
        result = _offload(*axpy, chunk_pct, in_region=False)
    finally:
        sys.setprofile(None)
    assert calls / _chunks(result) <= 5  # 9.5 before


def test_a_fault_free_chunk_advances_three_times(axpy, monkeypatch):
    steps = []
    advance = StageTiming.advance

    def counted(self, *path):
        steps.append(path)
        advance(self, *path)

    monkeypatch.setattr(StageTiming, "advance", counted)
    result = _offload(*axpy, 0.002, in_region=False)
    assert len(steps) == 3 * _chunks(result)  # 6 per chunk before
    assert sum(len(path) for path in steps) == 6 * _chunks(result)


def test_a_drain_with_nobody_parked_scans_no_states(axpy):
    """Every device drain re-checks the barrier; with no device parked
    (``RunContext.park`` counts them) the check makes no call at all."""
    checks = inner = 0

    def count(frame, event, arg):
        nonlocal checks, inner
        if event != "call":
            return
        if frame.f_code.co_name == "maybe_release_barrier":
            checks += 1
        elif frame.f_back.f_code.co_name == "maybe_release_barrier":
            inner += 1

    sys.setprofile(count)
    try:
        _offload(*axpy, 0.002, in_region=False)
    finally:
        sys.setprofile(None)
    assert checks >= len(full_node().devices) and inner == 0


# ------------------------------------------------- (iii) chunk_cost memo


def test_chunk_cost_memo_lives_and_dies_with_the_cost_constants():
    k = make_kernel("axpy", 1_000)
    cost = k.chunk_cost(IterRange(0, 10))
    assert k.chunk_cost(IterRange(40, 50)) is cost  # equal length: same object
    assert k.chunk_cost(IterRange(0, 20)) == replace(
        cost, flops=2 * cost.flops, mem_bytes=2 * cost.mem_bytes,
        xfer_in_bytes=2 * cost.xfer_in_bytes,
        xfer_out_bytes=2 * cost.xfer_out_bytes,
    )
    m = make_kernel("matvec", 64)
    before = m.chunk_cost(IterRange(0, 8))
    m.set_partition("x", Block())  # x was FULL (replicated): the maps change
    after = m.chunk_cost(IterRange(0, 8))
    assert after is not before
    assert after.replicated_in_bytes != before.replicated_in_bytes
    assert after.xfer_in_bytes != before.xfer_in_bytes


def test_out_of_range_chunk_efficiency_still_raises_on_every_call():
    k = make_kernel("matmul", 64)
    assert k.chunk_cost(IterRange(0, 16)).flops > k.chunk_cost(IterRange(0, 8)).flops
    k.chunk_efficiency = lambda n: 1.5
    for _ in range(2):  # a refused length is never memoised
        with pytest.raises(ValueError, match="chunk_efficiency"):
            k.chunk_cost(IterRange(0, 4))


# ------------------------------------------------- (iv) lifecycle checks


@pytest.mark.parametrize("frm", list(ChunkPhase))
def test_every_illegal_transition_still_raises(frm):
    for to in ChunkPhase:
        tm = StageTiming(chunk=IterRange(3, 7), phase=frm)
        if to in LIFECYCLE[frm]:
            tm.advance(to)
            assert tm.phase is to
            continue
        with pytest.raises(OffloadError) as err:
            tm.advance(to)
        assert str(err.value) == (
            f"illegal chunk lifecycle transition {frm.value} -> {to.value} "
            f"for chunk {IterRange(3, 7)}"
        )
        assert tm.phase is frm


def test_chunk_phases_survive_pickle_as_lifecycle_keys():
    for phase in ChunkPhase:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(phase, protocol))
            assert back is phase
            assert LIFECYCLE[back] is LIFECYCLE[phase]
            assert hash(back) == hash(phase)


# ------------------------------------------------- (v) the noise stream


#: First three ``compute_time(3e8, 2.4e8)`` draws of every ``full_node``
#: device at noise=0.05, run seed 5, generated at the commit before the
#: device derived its rates at construction (418de88).
_DRAWS_AT_PARENT = {
    0: ["0x1.ece6f8ea2154ep-9", "0x1.09339e9b69461p-8", "0x1.0d40bc72f429bp-8"],
    1: ["0x1.094d93620ce08p-8", "0x1.106339bc8e3fdp-8", "0x1.12f6d1d7da32dp-8"],
    2: ["0x1.610bcb1a1dfeap-10", "0x1.395364b4f63aap-10", "0x1.2100d7fd26972p-10"],
    3: ["0x1.165d63c486b85p-10", "0x1.37450229b4c93p-10", "0x1.2d0aa15492402p-10"],
    4: ["0x1.2960e00c780dbp-10", "0x1.2cb999e506ffap-10", "0x1.2a85bccbdae8fp-10"],
    5: ["0x1.2418acf534a86p-10", "0x1.34f029edbcb7dp-10", "0x1.0d21f5ab662a9p-10"],
    6: ["0x1.a43a3e36a70ecp-10", "0x1.9921dcaaa512fp-10", "0x1.9ca1572587739p-10"],
    7: ["0x1.a25d75b718255p-10", "0x1.b40d01ffe0861p-10", "0x1.912881f1efd7dp-10"],
}


def test_noisy_compute_time_draws_equal_the_parents():
    for devid, spec in enumerate(full_node().devices):
        d = Device(devid, replace(spec, noise=0.05), 5)
        draws = [d.compute_time(3e8, 2.4e8).hex() for _ in range(3)]
        assert draws == _DRAWS_AT_PARENT[devid]


# ------------------------------------------------- (vi) the price table's edges


def _dynamic(rt, kernel, **options):
    return rt.parallel_for(
        kernel, schedule="SCHED_DYNAMIC", chunk_pct=0.01, **options
    )


def _carried_batch():
    """The second of two runs sharing a skeleton: every lane starts it
    with ``first_chunk`` carried False."""
    eng = OffloadEngine(machine=full_node())
    kernel = make_kernel("matvec", 512)
    eng.run(kernel, make_scheduler("SCHED_DYNAMIC", chunk_pct=0.01))
    return eng.run(
        kernel, make_scheduler("SCHED_DYNAMIC", chunk_pct=0.01),
        carry_in=eng.carry_out(),
    )


#: blake2b-128 of each pickled result (protocol 4), generated before the
#: event loop priced a chunk from its length.  Each failed in a copy whose
#: table ignored what it guards: the table on a noisy lane, a hit skipping
#: the slowdown, a hit skipping the dispatch resource, one table shared by
#: every lane, and a lane's first chunk taken as its first of the run.
_EDGE_PINS = {
    "noisy lanes": (
        lambda: _dynamic(
            HompRuntime(gpu4_node(noise=0.05), seed=3), make_kernel("axpy", 20_000)
        ),
        "00dc692de95aba332cc2dd4f2cbf29da",
    ),
    "slowdown and transfer errors": (
        lambda: _dynamic(
            HompRuntime(full_node()), make_kernel("matvec", 512),
            fault_plan=FaultPlan((
                Slowdown(devid=2, factor=3.0, t_start=2e-4, t_end=9e-4),
                TransferError(devid=3, p_fail=0.2, seed=1),
            )),
        ),
        "834ebf4ba063db3f1d7fe0adcc007089",
    ),
    "serialized offload": (
        lambda: _dynamic(
            HompRuntime(full_node()), make_kernel("axpy", 20_000),
            serialize_offload=True,
        ),
        "75e43601e190dc9a79e94363c84ed2f1",
    ),
    "unified memory lane": (
        lambda: _dynamic(
            HompRuntime(MachineSpec("um", (
                k40_spec("k40-0"), k40_unified_spec("k40um-1"), k40_spec("k40-2"),
            ))),
            make_kernel("axpy", 20_000),
        ),
        "813f300ed323444df0740e3cf8e33cbe",
    ),
    "carried stream batch": (_carried_batch, "ff66a0b816c21d7deae65c0d590c11ec"),
}


@pytest.mark.parametrize("edge", sorted(_EDGE_PINS))
def test_runs_on_the_price_tables_edges_stay_byte_equal(edge):
    run, pinned = _EDGE_PINS[edge]
    digest = hashlib.blake2b(
        pickle.dumps(run(), protocol=4), digest_size=16
    ).hexdigest()
    assert digest == pinned
