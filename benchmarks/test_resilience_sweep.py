"""Resilience sweep: makespan degradation under injected faults.

Not a paper figure — the paper assumes well-behaved devices — but the
inverse of its load-balancing story: the same adaptivity that balances a
heterogeneous machine (Table II, chunked and profiled algorithms) is what
degrades gracefully when a device misbehaves, while static BLOCK has no
mechanism to route around trouble.

Shape asserted on 4 identical K40s with the paper-size axpy (10M):

* **straggler** (one device 4x slower for the whole offload): BLOCK
  collapses (its even split waits on the slow device end to end) while
  SCHED_DYNAMIC barely notices and SCHED_PROFILE_AUTO lands in between
  (its stage-1 profile sees the slowdown and shrinks the victim's share);
* **dropout** (one device lost at 50% of BLOCK's fault-free makespan,
  the same instant for every policy): everyone completes, with BLOCK
  degrading worst — it can only re-split the lost block after the fact;
* every faulted run's output is **bit-identical** to its fault-free run
  (axpy is elementwise, so chunking does not perturb the answer).

All of it is deterministic: fixed seeds, virtual time, counter-based
fault draws — the JSON artifact regenerates byte-identically.
"""

import json
from functools import partial

from repro.bench.resilience import (
    block_reference_makespan,
    dropout_plan,
    resilience_sweep,
    straggler_plan,
)
from repro.kernels.registry import paper_workload
from repro.machine.presets import gpu4_node

POLICIES = ("BLOCK", "SCHED_DYNAMIC", "SCHED_PROFILE_AUTO")
VICTIM = 1  # k40-1

#: Paper-size axpy (10M iterations) — the calibrated scenario where the
#: shared drop time separates the policies' recovery behaviour.
AXPY_FULL = partial(paper_workload, "axpy", scale=1.0, seed=0)


def _sweep():
    machine = gpu4_node()
    base_s = block_reference_makespan(machine, AXPY_FULL)
    plans = [
        straggler_plan(VICTIM, 4.0),
        dropout_plan(VICTIM, 0.5 * base_s),
    ]
    return resilience_sweep(
        machine, AXPY_FULL, policies=POLICIES, plans=plans,
    )


def test_resilience_sweep(bench_once, results_dir):
    result = bench_once(_sweep, name="resilience")
    print("\n" + result.text)
    deg = result.extra["degradation"]
    checks = result.extra["checksums_match"]
    straggler, dropout = deg  # insertion order: straggler first

    # Output identity: resilience never buys time with a wrong answer.
    for plan, by_policy in checks.items():
        for policy, same in by_policy.items():
            assert same, (plan, policy)

    # Straggler: BLOCK collapses, SCHED_DYNAMIC shrugs, PROFILE between.
    assert deg[straggler]["BLOCK"] > 3.0
    assert deg[straggler]["SCHED_DYNAMIC"] < 1.5
    assert (
        deg[straggler]["SCHED_DYNAMIC"]
        < deg[straggler]["SCHED_PROFILE_AUTO"]
        < deg[straggler]["BLOCK"]
    )

    # Dropout at the shared instant: everyone completes (the lost device's
    # work is reassigned), BLOCK measurably worst.
    for policy in POLICIES:
        assert deg[dropout][policy] < 1.5, policy
    assert deg[dropout]["BLOCK"] > deg[dropout]["SCHED_DYNAMIC"] + 0.02
    assert deg[dropout]["BLOCK"] > deg[dropout]["SCHED_PROFILE_AUTO"] + 0.02

    # Every faulted cell really saw its fault (dropout cells lost k40-1).
    for cell in result.extra["payload"]["cells"]:
        if cell["plan"] == dropout:
            assert cell["lost"] == ["k40-1"]
            assert cell["fault_events"] >= 1

    (results_dir / "resilience.json").write_text(
        json.dumps(result.extra["payload"], indent=2, sort_keys=True) + "\n"
    )


def test_resilience_smoke(results_dir):
    """Cheap one-cell variant for the CI smokes job: one policy,
    one dropout, default bench scale."""
    from repro.bench.workloads import WorkloadFactory

    machine = gpu4_node()
    factory = WorkloadFactory("axpy", seed=0)
    base_s = block_reference_makespan(machine, factory)
    fig = resilience_sweep(
        machine, factory,
        policies=("SCHED_DYNAMIC",),
        plans=[dropout_plan(VICTIM, 0.5 * base_s)],
    )
    (plan,) = fig.extra["degradation"]
    assert fig.extra["checksums_match"][plan]["SCHED_DYNAMIC"]
    assert 1.0 <= fig.extra["degradation"][plan]["SCHED_DYNAMIC"] < 2.0
