"""HOMP reproduction: automated distribution of parallel loops and data
across heterogeneous devices.

Reproduces Yan, Liu, Cameron & Umar, *HOMP: Automated Distribution of
Parallel Loops and Data in Highly Parallel Accelerator-Based Systems*
(IPDPS Workshops 2017) as a Python library: the language extensions
(directive parser), the seven loop-distribution algorithms, the CUTOFF
device-selection heuristic, and a calibrated simulated heterogeneous node
standing in for the paper's 2-CPU / 4-GPU / 2-MIC machine.

Quickstart::

    from repro import HompRuntime, full_node, make_kernel

    rt = HompRuntime(full_node())
    result = rt.parallel_for(make_kernel("axpy", 1_000_000),
                             schedule="SCHED_DYNAMIC", cutoff_ratio="auto")
    print(result.total_time_ms, result.iterations_per_device())
"""

from repro.cluster import (
    ClusterSpec,
    gpu_cluster,
    homogeneous_cluster,
    run_cluster,
)
from repro.engine import (
    DeviceTrace,
    OffloadEngine,
    OffloadResult,
    make_backend,
)
from repro.errors import (
    AlignmentError,
    DeviceError,
    DirectiveSyntaxError,
    DistributionError,
    EngineBusyError,
    FaultError,
    FaultPlanError,
    HompError,
    MachineSpecError,
    MappingError,
    OffloadError,
    SchedulingError,
)
from repro.faults import (
    ChunkFault,
    DeviceDropout,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    Slowdown,
    TransferError,
)
from repro.kernels import (
    AxpyKernel,
    BlockMatchingKernel,
    KERNELS,
    LoopKernel,
    MapSpec,
    MatMulKernel,
    MatVecKernel,
    Stencil2DKernel,
    SumKernel,
    make_kernel,
)
from repro.machine import (
    Device,
    DeviceSpec,
    DeviceType,
    Link,
    MachineSpec,
    MemoryKind,
    cpu_mic_node,
    cpu_spec,
    full_node,
    gpu4_node,
    homogeneous_node,
    k40_spec,
    mic_spec,
)
from repro.runtime import HaloExchange, HompRuntime, TargetDataRegion
from repro.sched import (
    ALGORITHM_TABLE,
    SCHEDULERS,
    default_cutoff_ratio,
    make_scheduler,
    select_algorithm,
)
from repro.dist import Align, Auto, Block, Cyclic, Full, parse_policy
from repro.lang import parse_device_clause, parse_directive
from repro.obs import MetricsRegistry, Span, Tracer, write_chrome_trace

__version__ = "1.9.0"

__all__ = [
    "__version__",
    # engine
    "DeviceTrace",
    "OffloadEngine",
    "OffloadResult",
    "make_backend",
    # errors
    "HompError",
    "DirectiveSyntaxError",
    "MachineSpecError",
    "DeviceError",
    "MappingError",
    "DistributionError",
    "AlignmentError",
    "SchedulingError",
    "OffloadError",
    "EngineBusyError",
    "FaultPlanError",
    "FaultError",
    # faults
    "FaultPlan",
    "Slowdown",
    "TransferError",
    "DeviceDropout",
    "ChunkFault",
    "RetryPolicy",
    "ResiliencePolicy",
    # kernels
    "LoopKernel",
    "MapSpec",
    "AxpyKernel",
    "SumKernel",
    "MatVecKernel",
    "MatMulKernel",
    "Stencil2DKernel",
    "BlockMatchingKernel",
    "KERNELS",
    "make_kernel",
    # machine
    "Device",
    "DeviceSpec",
    "DeviceType",
    "MemoryKind",
    "Link",
    "MachineSpec",
    "cpu_spec",
    "k40_spec",
    "mic_spec",
    "gpu4_node",
    "cpu_mic_node",
    "full_node",
    "homogeneous_node",
    # cluster
    "ClusterSpec",
    "gpu_cluster",
    "homogeneous_cluster",
    "run_cluster",
    # runtime
    "HompRuntime",
    "TargetDataRegion",
    "HaloExchange",
    # scheduling
    "SCHEDULERS",
    "ALGORITHM_TABLE",
    "make_scheduler",
    "select_algorithm",
    "default_cutoff_ratio",
    # policies & language
    "Full",
    "Block",
    "Cyclic",
    "Align",
    "Auto",
    "parse_policy",
    "parse_device_clause",
    "parse_directive",
    # observability
    "Span",
    "Tracer",
    "MetricsRegistry",
    "write_chrome_trace",
]
