"""Properties of region placement: one ALIGN resolver, honest ranges.

``DataPlacementPlan.derive`` must say exactly what the
:class:`~repro.dist.align.AlignmentGraph` says (the scheduler's view of
ALIGN), keep every device's rows disjoint and inside the array, and an
``Align(array)`` loop run inside a region must iterate exactly the rows
the region placed — so nothing it touches has to cross the bus.
"""

from hypothesis import given, settings, strategies as st

from repro.dist import AlignmentGraph, DimDistribution
from repro.dist.policy import Align, Auto, Block, Full
from repro.engine.core import make_backend
from repro.errors import AlignmentError
from repro.kernels.registry import make_kernel
from repro.machine.presets import homogeneous_node
from repro.memory.residency import DataPlacementPlan
from repro.memory.space import MapDirection
from repro.runtime import HompRuntime
from repro.runtime.data_env import TargetDataRegion
from repro.util.ranges import IterRange

NAMES = ("a", "b", "c", "d", "e")
#: ALIGN targets: the other entries (chains, self-reference, cycles) and a
#: loop label no entry carries.
TARGETS = NAMES + ("loop1",)

policies = st.one_of(
    st.just(Full()),
    st.just(Block()),
    st.just(Auto()),
    st.builds(
        Align,
        st.sampled_from(TARGETS),
        st.sampled_from([1.0, 2.0, 3.0, 0.5, 1.5, 2.5]),
    ),
)
entry_sets = st.dictionaries(
    st.sampled_from(NAMES),
    st.tuples(st.integers(0, 60), policies),  # zero-row arrays included
    min_size=1,
)


def _graph_for(entries, ndev):
    """The graph a reader of paper §V.D would build by hand."""
    graph = AlignmentGraph()
    for name, (rows, policy) in entries.items():
        aligned = (
            isinstance(policy, Align)
            and policy.target in entries
            and policy.target != name
        )
        if aligned:
            graph.add_align(name, policy)
        else:
            static = Block() if policy.needs_runtime else policy
            graph.add_concrete(
                name, DimDistribution.from_policy(static, IterRange(0, rows), ndev)
            )
    return graph


@given(entries=entry_sets, ndev=st.integers(1, 5))
def test_plan_is_the_alignment_graphs_resolution(entries, ndev):
    plan = DataPlacementPlan.derive(entries, ndev)
    graph = _graph_for(entries, ndev)
    assert sorted(plan.placements) == sorted(entries)
    for name, (rows, _policy) in entries.items():
        try:
            want = graph.resolve(name, extent=IterRange(0, rows))
        except AlignmentError:  # a cycle: the documented BLOCK fallback
            want = DimDistribution.from_policy(Block(), IterRange(0, rows), ndev)
        for dev in range(ndev):
            assert plan.ranges(name, dev) == tuple(
                r for r in want.device_ranges(dev) if not r.empty
            )
            assert plan.placed_rows(name, dev) == want.device_size(dev)


@given(entries=entry_sets, ndev=st.integers(1, 5))
def test_placed_ranges_are_disjoint_and_inside_the_extent(entries, ndev):
    plan = DataPlacementPlan.derive(entries, ndev)
    for name, (rows, _policy) in entries.items():
        per_dev = [plan.ranges(name, dev) for dev in range(ndev)]
        for ranges in per_dev:
            assert all(0 <= r.start < r.stop <= rows for r in ranges)
            ordered = sorted(ranges, key=lambda r: r.start)
            assert all(a.stop <= b.start for a, b in zip(ordered, ordered[1:]))
        if not plan.placements[name].replicated:
            rows_seen = [i for ranges in per_dev for r in ranges for i in range(r.start, r.stop)]
            assert len(rows_seen) == len(set(rows_seen))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 300), ndev=st.integers(1, 4))
def test_aligned_loop_iterates_exactly_the_placed_rows(n, ndev):
    rt = HompRuntime(homogeneous_node(ndev), execute_numerically=False)
    kernel = make_kernel("axpy", n)
    kernel.set_partition("x", Block())
    kernel.set_partition("y", Block())
    region = TargetDataRegion(
        runtime=rt,
        maps={
            "x": (kernel.arrays["x"], MapDirection.TO),
            "y": (kernel.arrays["y"], MapDirection.TOFROM),
        },
        partitioned=frozenset({"x", "y"}),
    )
    with region:
        engine = make_backend(
            "virtual",
            rt.machine.subset(region._ids),
            execute_numerically=False,
            collect_chunks=True,
        )
        result = region.parallel_for(kernel, schedule=Align("x"), engine=engine)
        for dev in range(ndev):
            iterated = tuple(c for d, c in engine.chunk_log if d == dev)
            assert iterated == region.plan.ranges("x", dev)
    assert result.meta["residency"]["bytes_moved"] == 0
    assert result.meta["residency"]["bytes_elided"] > 0
