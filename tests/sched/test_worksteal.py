"""Work-stealing scheduler (related-work extension)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.simulator import OffloadEngine
from repro.errors import SchedulingError
from repro.kernels.registry import make_kernel
from repro.machine.presets import cpu_mic_node, full_node, gpu4_node, homogeneous_node
from repro.sched.block import BlockScheduler
from repro.sched.worksteal import WorkStealingScheduler


def run(machine, kernel, scheduler):
    return OffloadEngine(machine=machine).run(kernel, scheduler)


def test_parameter_validation():
    with pytest.raises(SchedulingError):
        WorkStealingScheduler(chunk_pct=0.0)
    with pytest.raises(SchedulingError):
        WorkStealingScheduler(min_steal=0)


def test_numeric_correctness():
    k = make_kernel("axpy", 30_000, seed=12)
    run(full_node(), k, WorkStealingScheduler(0.03))
    assert np.allclose(k.arrays["y"], k.reference()["y"])


def test_identical_devices_no_steals():
    s = WorkStealingScheduler(0.05)
    r = run(gpu4_node(), make_kernel("axpy", 100_000), s)
    assert s.steals == 0
    assert len({t.iters for t in r.traces}) == 1  # perfectly even


def test_heterogeneous_devices_steal():
    s = WorkStealingScheduler(0.02)
    r = run(cpu_mic_node(), make_kernel("axpy", 200_000), s)
    assert s.steals > 0
    by_name = {t.name: t.iters for t in r.traces}
    # the transfer-free hosts end up with more work than their even share
    assert by_name["cpu-0"] > 50_000


def test_beats_block_on_heterogeneous_node():
    ws = run(cpu_mic_node(), make_kernel("axpy", 200_000), WorkStealingScheduler(0.02))
    blk = run(cpu_mic_node(), make_kernel("axpy", 200_000), BlockScheduler())
    assert ws.total_time_s < blk.total_time_s


def test_registered():
    from repro.sched.registry import make_scheduler

    s = make_scheduler("WORK_STEALING", chunk_pct=0.1)
    assert isinstance(s, WorkStealingScheduler)
    assert s.describe() == "WORK_STEALING,10%"


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 5000),
    ndev=st.integers(1, 8),
    pct=st.floats(0.01, 0.5),
)
def test_property_exact_coverage(n, ndev, pct):
    """Steals never lose or duplicate iterations."""
    machine = homogeneous_node(ndev)
    k = make_kernel("axpy", n, seed=1)
    engine = OffloadEngine(machine=machine, execute_numerically=False,
                           collect_chunks=True)
    engine.run(k, WorkStealingScheduler(pct))
    seen = set()
    for _, chunk in engine.chunk_log:
        for i in range(chunk.start, chunk.stop):
            assert i not in seen
            seen.add(i)
    assert seen == set(range(n))
