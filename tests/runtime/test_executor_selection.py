"""Backend selection through HompRuntime.parallel_for(executor=...)."""

import numpy as np
import pytest

from repro.engine.threaded import ThreadedEngine
from repro.errors import OffloadError
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.runtime.runtime import HompRuntime


def test_default_executor_is_virtual():
    rt = HompRuntime(gpu4_node(), seed=0)
    k = make_kernel("sum", 50_000, seed=1)
    result = rt.parallel_for(k, schedule="SCHED_DYNAMIC")
    # Virtual meta layout is pinned by bit-identity: no executor key.
    assert "executor" not in result.meta
    assert result.reduction == pytest.approx(k.reference())


@pytest.mark.parametrize("name", ["threaded"])
def test_threaded_executor_by_name(name):
    rt = HompRuntime(gpu4_node(), seed=0)
    k = make_kernel("sum", 50_000, seed=1)
    result = rt.parallel_for(k, schedule="SCHED_DYNAMIC", executor=name)
    assert result.meta["executor"] == "threaded"
    assert result.reduction == pytest.approx(k.reference())
    assert sum(t.iters for t in result.traces) == 50_000


def test_executor_accepts_backend_class():
    rt = HompRuntime(gpu4_node(), seed=0)
    k = make_kernel("axpy", 40_000, seed=2)
    result = rt.parallel_for(k, schedule="BLOCK", executor=ThreadedEngine)
    assert result.meta["executor"] == "threaded"
    assert np.allclose(k.arrays["y"], k.reference()["y"])


def test_unknown_executor_raises():
    rt = HompRuntime(gpu4_node(), seed=0)
    k = make_kernel("sum", 10_000, seed=0)
    with pytest.raises(OffloadError, match="unknown execution backend"):
        rt.parallel_for(k, schedule="BLOCK", executor="quantum")


def test_virtual_only_option_rejected_on_threaded():
    rt = HompRuntime(gpu4_node(), seed=0)
    k = make_kernel("sum", 10_000, seed=0)
    with pytest.raises(OffloadError, match="serialize_offload"):
        rt.parallel_for(
            k, schedule="BLOCK", executor="threaded", serialize_offload=True,
        )


def test_threaded_respects_device_selection():
    rt = HompRuntime(gpu4_node(), seed=0)
    k = make_kernel("sum", 50_000, seed=1)
    result = rt.parallel_for(
        k, schedule="SCHED_DYNAMIC", devices=[0, 1], executor="threaded",
    )
    assert len(result.traces) == 2
    assert sum(t.iters for t in result.traces) == 50_000
    assert result.meta["device_ids"] == [0, 1]
