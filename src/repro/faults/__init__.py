"""Deterministic fault injection and resilient offloading (``repro.faults``).

HOMP's premise is that devices are computationally *different*; this
subsystem makes them *unreliable* too, so the adaptive schedulers can be
exercised against the conditions that justify their existence: stragglers,
flaky PCIe links, and devices that die mid-offload.  Everything is
declarative and seed-deterministic — a :class:`FaultPlan` plus the engine
seed fully determines every fault occurrence, so faulted runs are as
reproducible as fault-free ones.

See ``docs/RESILIENCE.md`` for the plan schema, the retry/quarantine
semantics and the determinism guarantees.
"""

from repro.faults.events import ChunkFault, FaultKind
from repro.faults.plan import (
    DeviceDropout,
    FaultPlan,
    Slowdown,
    TransferError,
)
from repro.faults.policy import (
    DEFAULT_RESILIENCE,
    HealthTracker,
    ResiliencePolicy,
    RetryPolicy,
)

__all__ = [
    "Slowdown",
    "TransferError",
    "DeviceDropout",
    "FaultPlan",
    "ChunkFault",
    "FaultKind",
    "RetryPolicy",
    "ResiliencePolicy",
    "HealthTracker",
    "DEFAULT_RESILIENCE",
]
