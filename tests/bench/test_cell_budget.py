"""A verified grid cell recomputes nothing that is a pure function of
``(kernel, n, seed)`` — counted, not timed.

Host-independent budgets for the three things a ``run_cell`` used to redo
per cell: the bytes a second kernel of one key allocates (pure inputs are
the pool's own read-only arrays, a written array is copied once, not
twice), the serial reference (once per input set, not once per cell) and
the factory fingerprint (never: a cell is computed, not looked up).
"""

import gc
import tracemalloc
from dataclasses import dataclass

import pytest

from repro.bench.runner import ALL_POLICIES, run_cell
from repro.kernels.pool import clear_pool, pool_stats
from repro.kernels.registry import KERNELS, make_kernel
from repro.machine.presets import gpu4_node
from repro.service.loadgen import WorkloadTemplate


@pytest.fixture(autouse=True)
def fresh_pool():
    clear_pool()
    yield
    clear_pool()


# (kernel, n, MB the second instance of the key may hold; MB at 01da0b3)
@pytest.mark.parametrize(
    "name, n, budget_mb",
    [
        ("axpy", 500_000, 4.1),  # y once (12.0: x, y, and y again)
        ("sum", 1_000_000, 0.1),  # nothing (8.0)
        ("matvec", 1000, 0.1),  # y (8.03: A, x, y twice)
        ("stencil", 256, 0.6),  # u_out once (1.57)
    ],
)
def test_second_kernel_of_a_key_copies_only_what_it_writes(name, n, budget_mb):
    make_kernel(name, n, seed=3)  # fills the pool
    gc.collect()
    tracemalloc.start()
    try:
        kernel = make_kernel(name, n, seed=3)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / 1e6 <= budget_mb
    assert kernel.n_iters == n


@dataclass(frozen=True)
class _Loud(WorkloadTemplate):
    def fingerprint(self):
        raise AssertionError("run_cell asked a factory for its fingerprint")


def test_grid_computes_one_reference_per_input_set(monkeypatch):
    """2 sweeps x 7 policies x 6 kernels = 84 verified cells, 6 references
    (14 per kernel at 01da0b3)."""
    calls = dict.fromkeys(KERNELS, 0)

    def counting(name, original):
        def reference(self):
            calls[name] += 1
            return original(self)

        return reference

    for name, cls in KERNELS.items():
        monkeypatch.setattr(cls, "reference", counting(name, cls.reference))
    sizes = {"axpy": 6000, "sum": 8000, "matvec": 125, "matmul": 24,
             "stencil": 32, "bm": 16}
    factories = {k: _Loud(k, n, seed=5) for k, n in sizes.items()}
    machine = gpu4_node()
    for _ in range(2):
        for factory in factories.values():
            for policy in ALL_POLICIES:
                run_cell(machine, factory, policy, verify=True)
    assert calls == dict.fromkeys(KERNELS, 1)
    assert pool_stats() == {"hits": 6 * 13, "misses": 6, "entries": 6}
