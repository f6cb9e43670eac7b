#!/usr/bin/env python3
"""Bring your own machine: description files, microbenchmarks, heuristics.

Shows the workflow for adapting HOMP to a new machine, as paper §V
describes ("the HOMP runtime reads from a given machine description file
the specification of host CPU and accelerators"):

1. author a machine description, write it to JSON and start the runtime
   from that file (``HompRuntime.from_file``),
2. microbenchmark the links to recover Hockney (alpha, beta) constants,
   and a device's compute rate (how the paper obtains its model's machine
   factors),
3. let the selector heuristics (paper §VI.D) pick an algorithm per kernel.

Run:  python examples/custom_machine.py
"""

import tempfile
from pathlib import Path

from repro import (
    DeviceSpec,
    DeviceType,
    HompRuntime,
    Link,
    MachineSpec,
    MemoryKind,
    make_kernel,
    select_algorithm,
)
from repro.bench.microbench import probe_device_rate, probe_link
from repro.util.tables import render_table


def build_machine() -> MachineSpec:
    """An imaginary node: one big host + two mid-range GPUs."""
    host = DeviceSpec(
        name="epyc-host",
        dev_type=DeviceType.HOSTCPU,
        sustained_gflops=900.0,
        mem_bandwidth_gbs=150.0,
        launch_overhead_s=4e-6,
    )
    gpu = lambda i: DeviceSpec(
        name=f"gpu-{i}",
        dev_type=DeviceType.NVGPU,
        sustained_gflops=3500.0,
        mem_bandwidth_gbs=600.0,
        link=Link(latency_s=8e-6, bandwidth_gbs=24.0),
        memory=MemoryKind.DISCRETE,
        launch_overhead_s=8e-6,
        setup_overhead_s=100e-6,
    )
    return MachineSpec(name="custom-node", devices=(host, gpu(0), gpu(1)))


def main() -> None:
    machine = build_machine()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "machine.json"
        machine.to_file(path)
        runtime = HompRuntime.from_file(path)  # paper section V's start-up
    machine = runtime.machine
    print(machine.describe())
    print()

    probe = probe_link(machine[1].link, noise=0.02, seed=3)
    print(
        f"microbenchmarked gpu-0 link: alpha = {probe.alpha_s * 1e6:.1f} us, "
        f"beta = {probe.bandwidth_gbs():.1f} GB/s "
        f"(spec: {machine[1].link.latency_s * 1e6:.1f} us, "
        f"{machine[1].link.bandwidth_gbs:.1f} GB/s)"
    )
    for flops in (1e6, 1e12):
        print(
            f"microbenchmarked gpu-0 rate over {flops:.0e} FLOPs: "
            f"{probe_device_rate(machine[1], flops=flops):.1f} GFLOP/s "
            f"(spec: {machine[1].sustained_gflops:.1f})"
        )
    print()

    rows = []
    for name, n in [("axpy", 2_000_000), ("sum", 4_000_000), ("matvec", 3000),
                    ("matmul", 768), ("stencil", 256), ("bm", 256)]:
        kernel = make_kernel(name, n)
        algo = select_algorithm(kernel, machine)
        result = runtime.parallel_for(kernel, schedule="AUTO", cutoff_ratio="auto")
        rows.append([name, algo, result.total_time_ms, result.devices_used])
    print(render_table(
        ["kernel", "selected algorithm", "time (ms)", "devices"],
        rows,
        title="selector heuristics (paper section VI.D) on the custom node",
    ))


if __name__ == "__main__":
    main()
