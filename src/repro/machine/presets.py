"""Machine presets calibrated to the paper's evaluation node.

The paper evaluates on: 2x Intel Xeon E5-2699 v3 (Haswell, 18 cores),
4x NVIDIA K40 (two K80 dual-GPU cards), 2x Intel Xeon Phi SC7120P.
Numbers below are sustained rates and effective bus figures from public
spec sheets and common microbenchmark results for that generation:

==========  =============  ==========  ======================  =========
device      sustained DP   mem BW      PCIe link               overheads
==========  =============  ==========  ======================  =========
E5-2699 v3  ~350 GFLOP/s   ~60 GB/s    shared (host memory)    ~5 us fork
K40         ~1100 GFLOP/s  ~210 GB/s   ~15 us + 11 GB/s        ~12 us launch
Phi 7120P   ~250 GFLOP/s   ~160 GB/s   ~40 us + 6.5 GB/s       ~80 us offload
==========  =============  ==========  ======================  =========

The MIC figure reflects the paper's own observation that its MICs rarely
earn a spot past the 15% CUTOFF: sustained throughput of generic offloaded
OpenMP loops on KNC was far below peak, and offload-mode launch cost was an
order of magnitude above a CUDA launch.  Only the *ratios* between these
numbers matter for reproducing who-wins/crossover shapes.
"""

from __future__ import annotations

from repro.errors import MachineSpecError
from repro.machine.interconnect import Link, SHARED_LINK
from repro.machine.spec import DeviceSpec, DeviceType, MachineSpec, MemoryKind

__all__ = [
    "cpu_spec",
    "k40_spec",
    "k40_unified_spec",
    "mic_spec",
    "gpu4_node",
    "gpu4_k80_paired_node",
    "cpu_mic_node",
    "full_node",
    "homogeneous_node",
]


def cpu_spec(name: str = "xeon-e5-2699v3", *, noise: float = 0.0) -> DeviceSpec:
    """One Haswell socket acting as a host computation device."""
    return DeviceSpec(
        name=name,
        dev_type=DeviceType.HOSTCPU,
        sustained_gflops=350.0,
        mem_bandwidth_gbs=60.0,
        link=SHARED_LINK,
        memory=MemoryKind.SHARED,
        launch_overhead_s=5e-6,
        sched_overhead_s=1e-6,
        setup_overhead_s=2e-6,
        noise=noise,
    )


def k40_spec(name: str = "k40", *, noise: float = 0.0) -> DeviceSpec:
    """One NVIDIA K40 GPU (half of a K80 card) behind PCIe gen3."""
    return DeviceSpec(
        name=name,
        dev_type=DeviceType.NVGPU,
        sustained_gflops=1100.0,
        mem_bandwidth_gbs=210.0,
        link=Link(latency_s=15e-6, bandwidth_gbs=11.0),
        memory=MemoryKind.DISCRETE,
        launch_overhead_s=12e-6,
        sched_overhead_s=2e-6,
        setup_overhead_s=150e-6,
        noise=noise,
    )


def mic_spec(name: str = "phi-7120p", *, noise: float = 0.0) -> DeviceSpec:
    """One Xeon Phi SC7120P in offload mode."""
    return DeviceSpec(
        name=name,
        dev_type=DeviceType.MIC,
        sustained_gflops=250.0,
        # KNC's DGEMM microbenchmark sustains ~850 GFLOP/s, which is what a
        # microbenchmark-calibrated model believes; generic offloaded loops
        # reach nowhere near that.  This gap is the paper's mispredicted-MIC
        # story (MICs get cut by CUTOFF on most workloads).
        model_gflops=850.0,
        mem_bandwidth_gbs=160.0,
        link=Link(latency_s=40e-6, bandwidth_gbs=6.5),
        memory=MemoryKind.DISCRETE,
        launch_overhead_s=80e-6,
        sched_overhead_s=2e-6,
        setup_overhead_s=600e-6,
        noise=noise,
    )


def k40_unified_spec(name: str = "k40um", *, noise: float = 0.0) -> DeviceSpec:
    """A K40 with CUDA unified memory enabled (paper §V.C's comparison).

    Identical silicon and link, but the runtime shares data with it
    semantically and the engine charges driver-managed page migration
    instead of explicit copies.
    """
    base = k40_spec(name, noise=noise)
    return DeviceSpec(
        name=base.name,
        dev_type=base.dev_type,
        sustained_gflops=base.sustained_gflops,
        mem_bandwidth_gbs=base.mem_bandwidth_gbs,
        link=base.link,
        memory=MemoryKind.UNIFIED,
        launch_overhead_s=base.launch_overhead_s,
        sched_overhead_s=base.sched_overhead_s,
        setup_overhead_s=base.setup_overhead_s,
        noise=base.noise,
    )


def gpu4_node(n_gpus: int = 4, *, noise: float = 0.0) -> MachineSpec:
    """The 4-identical-GPU configuration of paper Figs. 5-7."""
    if isinstance(n_gpus, bool) or not isinstance(n_gpus, int):
        raise MachineSpecError(f"GPU count must be an int, got {n_gpus!r}")
    return MachineSpec(
        name=f"gpu{n_gpus}",
        devices=tuple(k40_spec(f"k40-{i}", noise=noise) for i in range(n_gpus)),
    )


def gpu4_k80_paired_node(*, noise: float = 0.0) -> MachineSpec:
    """The gpu4 node with the physical truth of its K80 packaging: the two
    K40s of each card share one PCIe slot (`pcie_group`), so their
    transfers contend.  Used by the contention ablation; the default
    `gpu4_node` keeps dedicated links (the calibration the figures use).
    """
    def gpu(i: int) -> DeviceSpec:
        base = k40_spec(f"k40-{i}", noise=noise)
        return DeviceSpec(
            name=base.name,
            dev_type=base.dev_type,
            sustained_gflops=base.sustained_gflops,
            mem_bandwidth_gbs=base.mem_bandwidth_gbs,
            link=base.link,
            memory=base.memory,
            launch_overhead_s=base.launch_overhead_s,
            sched_overhead_s=base.sched_overhead_s,
            setup_overhead_s=base.setup_overhead_s,
            pcie_group=f"k80-card-{i // 2}",
            noise=base.noise,
        )

    return MachineSpec(name="gpu4-k80", devices=tuple(gpu(i) for i in range(4)))


def cpu_mic_node(*, noise: float = 0.0) -> MachineSpec:
    """The 2 CPUs + 2 MICs configuration of paper Fig. 8."""
    return MachineSpec(
        name="cpu2+mic2",
        devices=(
            cpu_spec("cpu-0", noise=noise),
            cpu_spec("cpu-1", noise=noise),
            mic_spec("mic-0", noise=noise),
            mic_spec("mic-1", noise=noise),
        ),
    )


def full_node(*, noise: float = 0.0) -> MachineSpec:
    """The full node of paper Fig. 9: 2 CPUs + 4 GPUs + 2 MICs.

    Device ids follow the paper's convention of hosts first.
    """
    return MachineSpec(
        name="cpu2+gpu4+mic2",
        devices=(
            cpu_spec("cpu-0", noise=noise),
            cpu_spec("cpu-1", noise=noise),
            k40_spec("k40-0", noise=noise),
            k40_spec("k40-1", noise=noise),
            k40_spec("k40-2", noise=noise),
            k40_spec("k40-3", noise=noise),
            mic_spec("mic-0", noise=noise),
            mic_spec("mic-1", noise=noise),
        ),
    )


def homogeneous_node(n: int, base: DeviceSpec | None = None) -> MachineSpec:
    """``n`` identical devices — used widely in unit and property tests."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise MachineSpecError(f"device count must be an int, got {n!r}")
    base = base or k40_spec()
    devices = tuple(
        DeviceSpec(
            name=f"{base.name}-{i}",
            dev_type=base.dev_type,
            sustained_gflops=base.sustained_gflops,
            mem_bandwidth_gbs=base.mem_bandwidth_gbs,
            link=base.link,
            memory=base.memory,
            model_gflops=base.model_gflops,
            launch_overhead_s=base.launch_overhead_s,
            sched_overhead_s=base.sched_overhead_s,
            setup_overhead_s=base.setup_overhead_s,
            noise=base.noise,
        )
        for i in range(n)
    )
    return MachineSpec(name=f"homogeneous{n}", devices=devices)
