"""Runtime device object: spec + id + the cost model the simulator charges.

Compute cost follows the roofline shape the paper's heuristics assume:
a chunk doing ``flops`` of arithmetic over ``mem_bytes`` of device-memory
traffic takes ``max(flops/Perf_dev, mem_bytes/BW_dev)`` plus a per-launch
overhead.  Transfer cost is the Hockney model on the device's link.
Optional multiplicative lognormal noise (one stream per device and run
seed, created on the first noisy draw) makes dynamic scheduling face
realistic run-to-run variation without losing determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machine.spec import DeviceSpec, MemoryKind
from repro.util.units import gbs_to_bytes_per_s, gflops_to_flops

__all__ = ["Device"]


@dataclass
class Device:
    """One computation device instantiated in a running machine."""

    devid: int
    spec: DeviceSpec
    #: Run seed of the noise stream (the same seed replays the same draws).
    seed: int = 0
    _rng: np.random.Generator | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # What the per-chunk cost model asks of the (frozen) spec, answered
        # once: ``compute_time`` and ``transfer_time`` run once per chunk.
        spec = self.spec
        self.shares_host_memory = spec.memory is not MemoryKind.DISCRETE
        self._flops_per_s = gflops_to_flops(spec.sustained_gflops)
        self._mem_bytes_per_s = gbs_to_bytes_per_s(spec.mem_bandwidth_gbs)
        self._link = None if spec.memory is MemoryKind.SHARED else spec.link

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_host(self) -> bool:
        return self.spec.is_host

    # -- cost model ---------------------------------------------------------

    def compute_time(self, flops: float, mem_bytes: float, *, noisy: bool = True) -> float:
        """Roofline time for one kernel launch over a chunk, in seconds."""
        if flops < 0 or mem_bytes < 0:
            raise ValueError("flops and mem_bytes must be >= 0")
        t_compute = flops / self._flops_per_s
        t_memory = mem_bytes / self._mem_bytes_per_s
        t = t_memory if t_memory > t_compute else t_compute  # max, no call
        t += self.spec.launch_overhead_s
        if noisy and self.spec.noise > 0:
            rng = self._rng
            if rng is None:
                # Per-device stream: noise draws are reproducible and
                # independent of how other devices interleave.  A noiseless
                # device never gets here, so it never pays for a generator.
                rng = self._rng = np.random.default_rng(
                    (0x60D5EED + self.devid) ^ self.seed
                )
            t *= float(rng.lognormal(mean=0.0, sigma=self.spec.noise))
        return t

    def transfer_time(self, nbytes: float) -> float:
        """Hockney cost of moving ``nbytes`` between host and this device."""
        if self._link is None:  # the host's own memory: nothing moves
            return 0.0
        return self._link.transfer_time(nbytes)

    def throughput_iters_per_s(
        self, flops_per_iter: float, mem_bytes_per_iter: float
    ) -> float:
        """Steady-state iterations/second for a uniform loop (no launch cost).

        This is the paper's ``f_i`` (Eq. 2) for data-parallel loops: the
        per-iteration cost is constant, so throughput is its reciprocal.
        """
        per_iter = max(
            flops_per_iter / self._flops_per_s,
            mem_bytes_per_iter / self._mem_bytes_per_s,
        )
        if per_iter <= 0.0:
            return float("inf")
        return 1.0 / per_iter
