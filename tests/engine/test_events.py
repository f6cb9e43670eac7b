"""Chunk-event timelines: the pipeline overlap made observable."""

import pytest

from repro.engine.events import ChunkEvent, Timeline, render_timeline
from repro.engine.simulator import OffloadEngine
from repro.kernels.registry import make_kernel
from repro.machine.presets import cpu_spec, gpu4_node, homogeneous_node
from repro.sched.block import BlockScheduler
from repro.sched.dynamic import DynamicScheduler
from repro.util.ranges import IterRange


def run_with_events(machine, kernel, scheduler):
    engine = OffloadEngine(machine=machine, record_events=True)
    result = engine.run(kernel, scheduler)
    return engine.timeline, result


def test_events_cover_all_chunks():
    tl, result = run_with_events(
        gpu4_node(), make_kernel("axpy", 10_000), DynamicScheduler(0.1)
    )
    assert len(tl.events) == 10
    assert sum(len(e.chunk) for e in tl.events) == 10_000


def test_event_stage_ordering():
    tl, _ = run_with_events(
        gpu4_node(), make_kernel("axpy", 10_000), DynamicScheduler(0.1)
    )
    for e in tl.events:
        assert e.acquire_t <= e.in_start <= e.in_end
        assert e.in_end <= e.comp_start <= e.comp_end
        assert e.comp_end <= e.out_start <= e.out_end


def test_makespan_matches_result_total():
    tl, result = run_with_events(
        gpu4_node(), make_kernel("axpy", 50_000), DynamicScheduler(0.05)
    )
    assert tl.makespan() == pytest.approx(result.total_time_s)


def test_dynamic_overlaps_transfers_with_compute():
    """The paper's central Fig.-5 mechanism, asserted on the raw timeline:
    under dynamic chunking, some chunk's copy-in runs while an earlier
    chunk of the same device computes."""
    tl, _ = run_with_events(
        gpu4_node(), make_kernel("axpy", 2_000_000), DynamicScheduler(0.02)
    )
    for devid in range(4):
        evs = tl.for_device(devid)
        assert len(evs) > 2
        overlapped = any(
            later.in_start < earlier.comp_end and earlier.comp_start < later.in_end
            for earlier, later in zip(evs, evs[1:])
        )
        assert overlapped, f"device {devid} never overlapped"


def test_block_has_no_intra_device_overlap():
    tl, _ = run_with_events(
        gpu4_node(), make_kernel("axpy", 2_000_000), BlockScheduler()
    )
    for devid in range(4):
        assert len(tl.for_device(devid)) == 1
        assert tl.device_overlap_fraction(devid) == 0.0


def test_host_chunks_are_serial():
    machine = homogeneous_node(2, cpu_spec())
    tl, _ = run_with_events(
        machine, make_kernel("axpy", 100_000), DynamicScheduler(0.1)
    )
    for devid in range(2):
        evs = tl.for_device(devid)
        for a, b in zip(evs, evs[1:]):
            assert b.comp_start >= a.comp_end - 1e-15


def test_events_disabled_by_default():
    engine = OffloadEngine(machine=gpu4_node())
    engine.run(make_kernel("axpy", 1000), BlockScheduler())
    assert engine.timeline.events == []


def test_render_timeline_shape():
    tl, _ = run_with_events(
        gpu4_node(2), make_kernel("axpy", 100_000), DynamicScheduler(0.1)
    )
    text = render_timeline(tl, width=40)
    lines = text.splitlines()
    assert lines[0].startswith("timeline:")
    assert len(lines) == 1 + 2 * 3  # header + 3 rows per device
    assert any("c" in ln for ln in lines)
    assert any("i" in ln for ln in lines)


def test_render_empty_timeline():
    assert "empty" in render_timeline(Timeline(events=[]))


def test_runtime_exposes_timeline():
    from repro.runtime.runtime import HompRuntime

    rt = HompRuntime(gpu4_node())
    result = rt.parallel_for(
        make_kernel("axpy", 10_000), schedule="SCHED_DYNAMIC", record_events=True
    )
    assert result.meta["timeline"].events
