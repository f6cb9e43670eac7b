"""One chunk's charge is one critical section of the ledger.

``RegionResidency.charge_chunk`` stages every map a chunk reads and records
every map it writes; two threads must never interleave inside that, so
the whole charge holds the ledger lock once (the nested
acquisitions of ``stage``/``note_write`` are re-entrant no-ops).
"""

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
