"""The HOMP runtime: user-facing offload API, target-data regions, halo
exchange, and device selection."""

from repro.runtime.runtime import HompRuntime
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.halo import HaloExchange
from repro.runtime.offload_info import ArrayInfo, OffloadInfo
from repro.runtime.stream import StreamResult, run_stream

__all__ = [
    "HompRuntime",
    "TargetDataRegion",
    "StreamResult",
    "run_stream",
    "HaloExchange",
    "ArrayInfo",
    "OffloadInfo",
]
