"""Every entry point is bind -> resolve the scheduler -> the one back half.

Whichever door an offload comes in by — ``parallel_for``,
``parallel_for_many``, a fused program member, an in-region offload or a
stream batch — its scheduler keywords reach the scheduler (or are refused
by name), and its result carries the same ``meta`` stamp.
"""

from dataclasses import replace

import pytest

from repro.dist.policy import Align
from repro.errors import OffloadError, SchedulingError
from repro.ir.lower import from_directive, from_directives
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.runtime import HompRuntime
from repro.runtime.runtime import OffloadSpec
from repro.sched.dynamic import DynamicScheduler

STREAM = "#pragma omp parallel target stream(batches=3, window=4)"


@pytest.fixture
def rt():
    return HompRuntime(gpu4_node(), execute_numerically=False)


def axpy():
    return make_kernel("axpy", 20_000)


def chunks(result) -> int:
    return sum(t.chunks for t in result.traces)


# ------------------------------------------- scheduler keywords are honoured


def test_multi_batch_stream_honours_scheduler_keywords(rt):
    sr = rt.stream(axpy(), batches=2, schedule="SCHED_DYNAMIC", chunk_pct=0.25)
    assert sr.algorithm == "SCHED_DYNAMIC,25%"
    assert [chunks(r) for r in sr.results] == [4, 4]  # 50 each at the default 2%
    (one,) = rt.stream(
        axpy(), batches=1, schedule="SCHED_DYNAMIC", chunk_pct=0.25
    ).results
    assert chunks(one) == 4 and one.algorithm == sr.algorithm


def test_stream_clause_in_a_program_honours_scheduler_keywords(rt):
    program = from_directive(STREAM, axpy(), schedule="SCHED_DYNAMIC")
    (sr,) = rt.run_program(program, chunk_pct=0.25)
    assert sr.algorithm == "SCHED_DYNAMIC,25%"
    assert [chunks(r) for r in sr.results] == [4, 4, 4]
    plain = from_directive(
        "#pragma omp parallel target", axpy(), schedule="SCHED_DYNAMIC"
    )
    (r,) = rt.run_program(plain, chunk_pct=0.25)
    assert chunks(r) == 4


# ------------------------------------ keywords nobody consumes are refused


@pytest.mark.parametrize(
    "schedule", [DynamicScheduler(), Align("x")], ids=["instance", "align"]
)
@pytest.mark.parametrize("keyword", ["chunk_pct", "record_event"])
def test_keywords_beside_a_built_schedule_are_refused(rt, schedule, keyword):
    with pytest.raises(SchedulingError, match=keyword):
        rt.parallel_for(axpy(), schedule=schedule, **{keyword: 0.25})


def test_keywords_the_algorithm_does_not_take_are_refused(rt):
    with pytest.raises(SchedulingError, match="BLOCK.*chunk_pct"):
        rt.parallel_for(axpy(), schedule="BLOCK", chunk_pct=0.25)
    with pytest.raises(SchedulingError, match="record_event"):
        rt.stream(axpy(), batches=2, schedule="BLOCK", record_event=True)
    with pytest.raises(SchedulingError, match="record_event"):
        rt.run_program(from_directive(STREAM, axpy()), record_event=True)


def test_offload_names_itself_when_it_refuses_devices(rt):
    with pytest.raises(OffloadError, match=r"^offload: devices="):
        rt.offload("#pragma omp parallel target", axpy(), devices=[0])


# --------------------------------------------- one stamp behind every door


def _parallel_for(rt, kernel):
    return rt.parallel_for(kernel, schedule="BLOCK", devices=[0, 1, 2])


def _parallel_for_many(rt, kernel):
    (result,) = rt.parallel_for_many(
        [OffloadSpec(kernel, "BLOCK")], devices=[0, 1, 2]
    )
    return result


def _fused_member(rt, kernel):
    text = "#pragma omp parallel target device(0:3) dist_schedule(target:[BLOCK])"
    results = rt.run_program(from_directives([(text, kernel)] * 2))
    assert "fusion" in results[1].meta
    return results[1]


def _in_region(rt, kernel):
    maps = "map(to: x[0:n]) map(tofrom: y[0:n])"
    arrays = {name: kernel.arrays[name] for name in ("x", "y")}
    with rt.target_data(
        f"#pragma omp parallel target data device(0:3) {maps}", arrays
    ) as region:
        return region.parallel_for(kernel, schedule="BLOCK")


def _stream_batch(rt, kernel):
    sr = rt.stream(kernel, batches=2, schedule="BLOCK", devices=[0, 1, 2])
    return sr.results[1]


@pytest.mark.parametrize(
    "door", [_parallel_for_many, _fused_member, _in_region, _stream_batch]
)
def test_every_door_stamps_what_parallel_for_stamps(rt, door):
    def stamp(result):
        info = result.meta["offload_info"]
        # ``resident`` says whether a region holds the array: the one
        # field that differs between doors by design.
        arrays = tuple(replace(a, resident=False) for a in info.arrays)
        return result.meta["device_ids"], replace(info, arrays=arrays)

    assert stamp(door(rt, axpy())) == stamp(_parallel_for(rt, axpy()))
