"""One chunk's charge is one critical section of the ledger.

``RegionResidency.charge_chunk`` stages every map a chunk reads and records
every map it writes; two wall-clock proxies must never interleave inside
that, so the whole charge holds the ledger lock once (the nested
acquisitions of ``stage``/``note_write`` are re-entrant no-ops).
"""

import sys
import threading

from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.memory.residency import RegionResidency
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.runtime import HompRuntime
from repro.util.ranges import IterRange


class CountingRLock:
    """A re-entrant lock that counts its outermost and total acquisitions."""

    def __init__(self) -> None:
        self._inner = threading.RLock()
        self._depth = 0
        self.outermost = self.total = 0

    def __enter__(self):
        self._inner.acquire()
        self.total += 1
        self.outermost += self._depth == 0
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        self._inner.release()


def _axpy_region(rt: HompRuntime, kernel) -> TargetDataRegion:
    maps = kernel.effective_maps()
    return TargetDataRegion(
        runtime=rt,
        maps={m.name: (kernel.arrays[m.name], m.direction) for m in maps},
        partitioned=frozenset(m.name for m in maps),
    )


def test_one_charge_is_one_outermost_lock_acquisition():
    rt = HompRuntime(gpu4_node(), execute_numerically=False)
    kernel = make_kernel("axpy", 4_000)  # x: to, y: tofrom; both partitioned
    with _axpy_region(rt, kernel):
        view = RegionResidency(rt.ledger, (0, 1, 2, 3))
        lock = rt.ledger._lock = CountingRLock()
        charge = view.charge_chunk(1, kernel, IterRange(0, 100), first_chunk=True)
        assert charge == (0.0, 0.0, 1600.0, 800.0)  # it did stage and write
        assert lock.outermost == 1
        assert lock.total > 1  # stage/note_write re-enter, they do not re-take


def _region_offload(executor: str):
    rt = HompRuntime(gpu4_node(), execute_numerically=False)
    kernel = make_kernel("axpy", 20_000)
    with _axpy_region(rt, kernel) as region:
        result = region.parallel_for(
            kernel, schedule="SCHED_DYNAMIC", chunk_pct=0.01, executor=executor
        )
        inside = rt.ledger.describe()
    return result, inside, rt.ledger.describe()


def _rows(spans) -> int:
    return sum(e - s for s, e in spans)


def test_threaded_and_virtual_reach_the_same_ledger():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # let proxies preempt each other mid-charge
    try:
        r_t, inside_t, after_t = _region_offload("threaded")
    finally:
        sys.setswitchinterval(interval)
    r_v, inside_v, after_v = _region_offload("virtual")

    assert r_t.meta["residency"] == r_v.meta["residency"]
    assert r_v.meta["residency"]["bytes_moved"] == 0.0
    assert after_t == after_v == {"arrays": {}, "refs": {}, "valid": {}}
    # Which proxy took which chunk is a race on the wall-clock backend, so
    # inside the region compare what does not depend on it: geometry and
    # references exactly, and per array the rows valid *somewhere*.
    for key in ("arrays", "refs"):
        assert inside_t[key] == inside_v[key]
    for inside in (inside_t, inside_v):
        held = {"x": [], "y": []}
        for key, spans in inside["valid"].items():
            held[key.split(":")[1]].append(spans)
        # y was written chunk by chunk: every row has exactly one holder.
        assert sum(_rows(s) for s in held["y"]) == 20_000
        # x was only read: the placement's copy survives, readers add theirs.
        assert sum(_rows(s) for s in held["x"]) >= 20_000
