"""Property suite for stream batch sequencing (hypothesis).

Four families of invariants over arbitrary stream shapes:

* **Item conservation** — every batch of every stream distributes the
  kernel's full iteration space: per-batch trace iters sum to
  ``n_iters``, and the stream yields exactly ``batches`` results with
  strictly increasing cumulative finish times.
* **Degenerate equality** — a 1-batch stream *is* the one-shot path:
  byte-identical (pickle-equal) results and equal checksums.
* **Rebalance exact cover** — whatever rate history STREAM_REBALANCE
  has accumulated, its per-batch split is a contiguous, gap-free,
  overlap-free partition of the iteration space.
* **Protocol exact cover** — the same, for every registered scheduler
  driven through its whole protocol by a random script instead of an
  engine.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import OnlineSumKernel, SlidingStencilKernel
from repro.dist.policy import Block
from repro.kernels.registry import make_kernel
from repro.machine.device import Device
from repro.machine.presets import full_node, gpu4_node
from repro.runtime import HompRuntime
from repro.sched.base import BARRIER, SchedContext
from repro.sched.history import HistoryDB
from repro.sched.registry import SCHEDULERS, make_scheduler
from repro.sched.stream_rebalance import StreamRebalanceScheduler
from repro.util.ranges import IterRange


# -- item conservation --------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(
    batches=st.integers(min_value=1, max_value=6),
    window=st.integers(min_value=0, max_value=64),
    schedule=st.sampled_from(["BLOCK", "STREAM_REBALANCE", "SCHED_DYNAMIC"]),
)
def test_every_batch_conserves_iterations(batches, window, schedule):
    rt = HompRuntime(machine=gpu4_node())
    kernel = OnlineSumKernel(512, seed=2)
    sr = rt.stream(kernel, batches=batches, window=window, schedule=schedule)
    assert len(sr.results) == batches
    assert sr.batches == batches
    for result in sr.results:
        assert sum(t.iters for t in result.traces) == kernel.n_iters
    # Cumulative stream times are strictly increasing, so every
    # per-batch latency is positive.
    assert all(dt > 0 for dt in sr.batch_times_s)


@settings(max_examples=10, deadline=None)
@given(
    batches=st.integers(min_value=2, max_value=5),
    devices=st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=1, max_size=4, unique=True,
    ),
)
def test_conservation_holds_on_any_device_subset(batches, devices):
    rt = HompRuntime(machine=gpu4_node())
    kernel = OnlineSumKernel(300, seed=4)
    sr = rt.stream(
        kernel, batches=batches, window=16,
        schedule="STREAM_REBALANCE", devices=list(devices),
    )
    for result in sr.results:
        assert sum(t.iters for t in result.traces) == kernel.n_iters
        assert len(result.traces) == len(devices)


# -- degenerate stream == one-shot -------------------------------------------

@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(["axpy", "sum", "stencil"]),
    schedule=st.sampled_from(["BLOCK", "MODEL_1_AUTO"]),
)
def test_degenerate_stream_pickles_identically(name, schedule):
    n = 64 if name == "stencil" else 512
    sr = HompRuntime(machine=full_node()).stream(
        make_kernel(name, n, seed=7),
        batches=1, window=32, schedule=schedule,
    )
    one_shot = HompRuntime(machine=full_node()).parallel_for(
        make_kernel(name, n, seed=7), schedule=schedule,
    )
    assert sr.meta == {"degenerate": True}
    assert pickle.dumps(sr.results[0]) == pickle.dumps(one_shot)


def test_degenerate_checksum_equals_one_shot():
    k_stream = SlidingStencilKernel(64, seed=9)
    k_solo = SlidingStencilKernel(64, seed=9)
    HompRuntime(machine=gpu4_node()).stream(
        k_stream, batches=1, window=8, schedule="BLOCK"
    )
    HompRuntime(machine=gpu4_node()).parallel_for(k_solo, schedule="BLOCK")
    assert k_stream.arrays["u_out"].sum() == k_solo.arrays["u_out"].sum()


# -- multi-batch checksum equality across schedulers --------------------------

@settings(max_examples=8, deadline=None)
@given(
    batches=st.integers(min_value=2, max_value=5),
    window=st.integers(min_value=1, max_value=48),
)
def test_stream_checksum_is_scheduler_invariant(batches, window):
    def run(schedule):
        kernel = SlidingStencilKernel(64, seed=11)
        HompRuntime(machine=full_node()).stream(
            kernel, batches=batches, window=window, schedule=schedule
        )
        return float(kernel.arrays["u_out"].sum())

    assert run("BLOCK") == run("STREAM_REBALANCE")


# -- rebalance split exact cover ----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10_000),
    rates=st.lists(
        st.one_of(
            st.none(),
            st.floats(min_value=0.01, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=4,
    ),
    data=st.data(),
)
def test_rebalance_split_exactly_covers_iter_space(n, rates, data):
    machine = gpu4_node()
    ndev = len(rates)
    s = StreamRebalanceScheduler()
    for devid, rate in enumerate(rates):
        if rate is not None:
            s._rates[devid] = rate
    ctx = SchedContext(
        kernel=make_kernel("axpy", n),
        devices=list(machine.devices)[:ndev],
    )
    s.start(ctx)
    chunks = []
    for d in range(ndev):
        chunk = s.next(d)
        if chunk is not None:
            chunks.append(chunk)
        assert s.next(d) is None
    chunks.sort(key=lambda c: c.start)
    assert chunks, "some device must receive work"
    assert chunks[0].start == 0
    assert chunks[-1].stop == n
    for prev, nxt in zip(chunks, chunks[1:]):
        assert prev.stop == nxt.start
    assert sum(len(c) for c in chunks) == n
    # A random subset of devices may also die mid-batch; surrendered
    # chunks plus served chunks still tile the space exactly once.
    lost = data.draw(
        st.lists(st.integers(min_value=0, max_value=ndev - 1),
                 max_size=ndev, unique=True)
    )
    s.start(SchedContext(
        kernel=make_kernel("axpy", n),
        devices=list(machine.devices)[:ndev],
    ))
    covered = []
    for d in range(ndev):
        if d in lost:
            covered.extend(s.device_lost(d))
        else:
            chunk = s.next(d)
            if chunk is not None:
                covered.append(chunk)
    covered.sort(key=lambda c: c.start)
    assert sum(len(c) for c in covered) == n
    for prev, nxt in zip(covered, covered[1:]):
        assert prev.stop == nxt.start


# -- protocol exact cover, every scheduler ------------------------------------

@pytest.mark.parametrize("notation", sorted(SCHEDULERS))
@settings(max_examples=25, deadline=None)
@given(
    ndev=st.integers(min_value=1, max_value=7),
    n=st.integers(min_value=1, max_value=5_000),
    cutoff=st.floats(min_value=0.0, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_any_protocol_interleaving_tiles_the_iter_space(
    notation, ndev, n, cutoff, seed
):
    """No engine: a random script plays the proxies.  Devices ask in any
    order, may die idle or holding a chunk, and whatever is orphaned is
    either kept by the script or offered back through ``requeue``.  Chunks
    served, ranges surrendered and requeues declined must tile ``[0, n)``
    exactly once."""
    rng = random.Random(seed)
    kernel = make_kernel("axpy", n)
    kwargs = {}
    if notation == "ALIGN":
        kernel.set_partition("x", Block())
        kwargs = {"target": "x"}
    elif notation == "HISTORY_AUTO":
        kwargs = {"db": HistoryDB()}
    s = make_scheduler(notation, **kwargs)
    devices = [Device(i, spec) for i, spec in enumerate(full_node().devices[:ndev])]
    s.start(SchedContext(kernel=kernel, devices=devices, cutoff_ratio=cutoff))

    covered = []
    alive = set(range(ndev))
    waiting: set[int] = set()
    idle: set[int] = set()  # got None since the last accepted requeue

    def orphan(chunk):
        # The engine's choice: hand it back, or adopt it itself.
        if rng.random() < 0.7 and s.requeue(chunk):
            idle.clear()
        else:
            covered.append(chunk)

    def lose(devid):
        for group in (alive, waiting, idle):
            group.discard(devid)
        for reserved in s.device_lost(devid):
            orphan(reserved)

    def release_barrier_if_ready():
        if waiting and waiting == alive:
            s.at_barrier()
            waiting.clear()

    while idle != alive:
        devid = rng.choice(sorted(alive - waiting))
        may_die = len(alive) > 1 and rng.random() < 0.15
        if may_die and rng.random() < 0.5:
            lose(devid)  # dies idle
        else:
            decision = s.next(devid)
            if decision is BARRIER:
                waiting.add(devid)
            elif decision is None:
                idle.add(devid)
            elif may_die:
                lose(devid)  # dies holding the chunk
                orphan(decision)
            else:
                assert not decision.empty
                covered.append(decision)
                s.observe(devid, decision, rng.choice([0.0, rng.random() + 1e-6]))
        release_barrier_if_ready()

    covered.sort(key=lambda c: c.start)
    assert sum(len(c) for c in covered) == n
    assert covered[0].start == 0 and covered[-1].stop == n
    for prev, nxt in zip(covered, covered[1:]):
        assert prev.stop == nxt.start
