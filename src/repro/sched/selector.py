"""Algorithm-selection heuristics (paper §IV.D and §VI.D).

The paper derives three rules from its evaluation:

1. compute-intensive kernels: BLOCK on identical devices, MODEL_1_AUTO
   on heterogeneous devices ("because of the simplicity of the two
   algorithms");
2. balanced kernels: SCHED_DYNAMIC, which overlaps data movement with
   computation;
3. data-intensive kernels: MODEL_2_AUTO, since only it prices the data
   movement.

The kernel class comes from the roofline-style MemComp/DataComp ratios
(:func:`repro.model.roofline.classify_intensity`); device homogeneity is
read off the machine spec.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.kernels.base import LoopKernel
from repro.machine.spec import MachineSpec
from repro.model.roofline import IntensityClass

__all__ = ["select_algorithm"]


def _homogeneous(machine: MachineSpec) -> bool:
    first = machine.devices[0]
    return all(
        d.dev_type is first.dev_type
        and d.sustained_gflops == first.sustained_gflops
        and d.mem_bandwidth_gbs == first.mem_bandwidth_gbs
        for d in machine.devices
    )


def select_algorithm(kernel: LoopKernel, machine: MachineSpec) -> str:
    """Paper-notation name of the algorithm the heuristics pick.

    Raises :class:`~repro.errors.SchedulingError` (not ``IndexError``)
    when the machine description carries no devices.
    """
    if not machine.devices:
        raise SchedulingError(
            f"machine {machine.name!r} has no devices to select an "
            "algorithm for"
        )
    klass = kernel.costs().intensity_class(kernel.n_iters)
    if klass is IntensityClass.COMPUTE_INTENSIVE:
        return "BLOCK" if _homogeneous(machine) else "MODEL_1_AUTO"
    if klass is IntensityClass.BALANCED:
        return "SCHED_DYNAMIC"
    return "MODEL_2_AUTO"
