"""Service throughput: engine pooling vs batch coalescing.

The perf artifact for ``repro.service``: one deterministic 10k-job plan
(vectorizable-heavy policy mix, three tenants, two workload templates)
is served two ways:

* ``pooled``  — the service with coalescing off: admission, weighted-fair
  queueing, and reusable pooled engines, one job per engine lease.
* ``coalesced`` — the full service: compatible queued jobs grouped into
  single ``OffloadEngine.run_many`` calls.

Coalescing's win is structural: a batch pays kernel construction and
numeric execution once per (workload, seed) group where the pooled path
pays them once per job, and one loop turn serves the whole group.
Results stay byte-identical to direct ``parallel_for`` calls (pinned
exhaustively by ``tests/service/test_determinism.py``; spot checked
here), so nothing is traded away.

What is asserted is the work each mode does, counted exactly: the Python
calls the service makes serving a fixed prefix of the plan, under
``sys.setprofile``.  The coalesced service must make at most a fixed
fraction of the pooled service's calls, so the check fails whenever
coalescing stops sharing work, however noisy the host.

``benchmarks/results/service_throughput.json`` records only what the plan
determines — completions, lost/duplicated counts, coalesce ratio and
batch count — so it regenerates byte-equal on any host.  The measured
jobs/sec are printed, not written: a wall-clock figure is a property of
the host, not of the code.

``REPRO_SERVICE_BENCH_JOBS`` overrides the plan size (the acceptance
artifact uses the default 10000; CI smoke may shrink it).
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import sys

from repro.machine.presets import gpu4_node
from repro.runtime.runtime import HompRuntime
from repro.service import (
    OffloadService,
    TenantQuota,
    TrafficSpec,
    WorkloadTemplate,
    plan_traffic,
    run_load,
)

JOBS = int(os.environ.get("REPRO_SERVICE_BENCH_JOBS", "10000"))
POOL_SIZE = 2
#: The plan prefix whose Python calls are counted in each mode.
CALL_JOBS = 500
#: Most Python calls the coalesced service may make on that prefix, as a
#: fraction of the pooled service's.  Measured 0.785 (296,292 vs 377,651
#: calls on a 2-CPU Xeon, CPython 3.11).
CALL_FRACTION = 0.85

SPEC = TrafficSpec(
    jobs=JOBS,
    seed=2026,
    tenants={"a": 2.0, "b": 1.0, "c": 1.0},
    templates=(
        WorkloadTemplate("axpy", 2048, seed=1),
        WorkloadTemplate("axpy", 2048, seed=2),
    ),
    # vectorizable-heavy mix with a dynamic minority that must run solo
    policies=("BLOCK", "MODEL_1_AUTO", "MODEL_2_AUTO",
              "SCHED_PROFILE_AUTO", "SCHED_DYNAMIC"),
    mean_interarrival_s=0.0,
)


def _served_report(machine, plan, *, coalesce):
    async def main():
        async with OffloadService(
            machine,
            pool_size=POOL_SIZE,
            coalesce=coalesce,
            queue_capacity=len(plan) + 1,
            default_quota=TenantQuota(max_in_flight=len(plan)),
        ) as svc:
            return await run_load(svc, plan)

    return asyncio.run(main())


def _python_calls(machine, plan, *, coalesce):
    """Python function calls serving ``plan`` makes (nearly deterministic:
    two runs differ by a few dozen in 300k).

    A profiler already installed (a coverage or call recorder) is put
    back afterwards, so counting never switches it off for later tests.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    installed = sys.getprofile()
    sys.setprofile(count)
    try:
        _served_report(machine, plan, coalesce=coalesce)
    finally:
        sys.setprofile(installed)
    return calls


def _spot_check(machine, plan, stride):
    """Every stride-th job must byte-match its direct parallel_for run."""
    async def main():
        async with OffloadService(
            machine, pool_size=POOL_SIZE,
            default_quota=TenantQuota(max_in_flight=len(plan)),
        ) as svc:
            sample = plan[::stride]
            handles = [await svc.submit(a.job) for a in sample]
            return await asyncio.gather(*(h.wait() for h in handles))

    for res in asyncio.run(main()):
        assert res.ok, res.error
        rt = HompRuntime(machine, seed=res.job.seed)
        direct = rt.parallel_for(
            res.job.factory(), schedule=res.job.policy,
            cutoff_ratio=res.job.cutoff_ratio,
        )
        assert pickle.dumps(res.result) == pickle.dumps(direct), res.job.tag


def test_service_throughput(results_dir):
    machine = gpu4_node()
    plan = plan_traffic(SPEC)
    assert len(plan) == JOBS

    # Warm kernel-input pools so no mode pays one-time generation costs.
    for template in SPEC.templates:
        template()

    pooled = _served_report(machine, plan, coalesce=False)
    coalesced = _served_report(machine, plan, coalesce=True)
    again = _served_report(machine, plan, coalesce=True)

    for name, report in (("pooled", pooled), ("coalesced", coalesced)):
        assert report.completed == JOBS, (name, report)
        assert report.failed == report.rejected == 0, (name, report)
        assert report.lost == report.duplicated == 0, (name, report)
    assert pooled.coalesce_ratio == 0.0
    assert coalesced.coalesce_ratio > 0.0
    # The plan alone decides how jobs batch.
    assert (again.coalesce_ratio, again.batches) == (
        coalesced.coalesce_ratio, coalesced.batches
    )

    _spot_check(machine, plan, stride=max(1, JOBS // 50))

    artifact = {
        "plan": {
            "jobs": JOBS,
            "seed": SPEC.seed,
            "tenants": SPEC.tenant_weights(),
            "templates": [t.fingerprint() for t in SPEC.templates],
            "policies": list(SPEC.policies),
        },
        "pool_size": POOL_SIZE,
        "modes": {
            name: {
                "completed": report.completed,
                "lost": report.lost,
                "duplicated": report.duplicated,
                "coalesce_ratio": round(report.coalesce_ratio, 4),
                "batches": report.batches,
            }
            for name, report in (("pooled", pooled), ("coalesced", coalesced))
        },
    }
    (results_dir / "service_throughput.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    print("\n" + json.dumps(artifact, indent=2))
    print(f"jobs/s: pooled {pooled.jobs_per_s:.1f}, "
          f"coalesced {coalesced.jobs_per_s:.1f}")

    # The floor: batching compatible jobs shares work, so serving them
    # coalesced makes far fewer calls than serving them one by one.
    prefix = plan[:CALL_JOBS]
    pooled_calls = _python_calls(machine, prefix, coalesce=False)
    coalesced_calls = _python_calls(machine, prefix, coalesce=True)
    print(f"python calls ({len(prefix)} jobs): pooled {pooled_calls}, "
          f"coalesced {coalesced_calls}")
    assert coalesced_calls <= CALL_FRACTION * pooled_calls, (
        pooled_calls, coalesced_calls)
