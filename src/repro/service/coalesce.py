"""Batch coalescing rules for the offload service.

Queued jobs that would each pay a full service round-trip (pool lease,
loop turn, engine configuration) can instead ride one
:meth:`~repro.engine.simulator.OffloadEngine.run_many` call, which runs
them back to back on one leased engine and — because the group shares one
workload — builds the (expensive) kernel inputs once and runs the numeric
execution once instead of once per job.

A job is *coalescible* when batching cannot change its bytes or lose a
side channel it asked for:

* its factory exposes a ``fingerprint()`` identity (the group key needs
  one, and sharing a kernel instance across jobs is only sound when the
  jobs verifiably build the same kernel),
* its policy is a concrete Table II notation whose scheduler is
  ``timing_oblivious`` — the static families, a handful of chunks per
  job, where the fixed cost a batch amortizes is most of the job
  (dynamic/guided/work-stealing jobs are chunk-loop-bound and would hold
  the shared lease for long, so they run solo; ``"AUTO"`` resolves
  against the kernel, which does not exist yet at queue time),
* it carries no fault plan, no resilience override, no tracer, no event
  recording, and no serialized offload — each of those either perturbs
  per-cell state or expects per-run side channels.

Jobs coalesce only within a :func:`group_key` — same machine selection,
workload fingerprint, seed and verify flag — so a batch is exactly one
``run_grid`` row: one workload under several policies/cutoffs, sharing
kernels (``_shared_kernel_specs``) and verified
(:func:`repro.bench.runner.verify_batch`) exactly as the grid's batch path
does, which keeps coalesced results byte-identical to solo runs (pinned
by ``tests/service/test_determinism.py``).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.runtime.runtime import OffloadSpec, _shared_kernel_specs
from repro.sched.registry import make_scheduler

if TYPE_CHECKING:
    from repro.service.job import OffloadJob

__all__ = ["coalescible", "group_key", "plan_group"]

#: notation -> timing_oblivious, resolved once per notation (scheduler
#: construction is cheap but the answer is a class attribute).
_TIMING_OBLIVIOUS: dict[str, bool] = {}


def _timing_oblivious_policy(name: str) -> bool:
    known = _TIMING_OBLIVIOUS.get(name)
    if known is None:
        try:
            known = bool(make_scheduler(name).timing_oblivious)
        except Exception:
            known = False
        _TIMING_OBLIVIOUS[name] = known
    return known


def coalescible(job: "OffloadJob") -> bool:
    """Whether ``job`` may share a ``run_many`` batch with compatible mates."""
    if getattr(job.factory, "fingerprint", None) is None:
        return False
    if not isinstance(job.policy, str):
        return False
    name = job.policy.strip()
    if not name or name.upper() == "AUTO":
        return False
    if job.trace or job.record_events or job.serialize_offload:
        return False
    if job.fault_plan is not None or job.resilience is not None:
        return False
    return _timing_oblivious_policy(name)


def group_key(job: "OffloadJob", ids: "tuple[int, ...]") -> "tuple | None":
    """Coalescing bucket for ``job`` on the normalised device selection.

    None marks the job un-coalescible.  Two jobs with equal keys build
    the same kernel (same fingerprint and seed) on the same submachine,
    so their batch may share one kernel instance.
    """
    if not coalescible(job):
        return None
    fp = json.dumps(job.factory.fingerprint(), sort_keys=True, default=str)
    return (tuple(ids), fp, job.seed, bool(job.verify))


def plan_group(jobs: "list[OffloadJob]") -> list[OffloadSpec]:
    """Specs for one coalesced batch; each says whether its cell runs
    numerics (``execute_numerically``).

    A group is a single-workload batch (one :func:`group_key`), so every
    job shares one kernel (``_shared_kernel_specs``).
    """
    return _shared_kernel_specs(
        (None, job.factory, job.policy, job.cutoff_ratio) for job in jobs
    )
