"""512-device cluster sweep: flat restaging vs ALIGN'd hierarchical BLOCK.

Runs a 64-node x 8-GPU cluster (512 devices) through ``run_cluster``
under three fabric tiers (10GbE, 100GbE, InfiniBand EDR) and two
kernels, comparing the two placement modes:

* **head** (the flat-BLOCK baseline) — the host image lives on the head
  node and every offload re-stages each node's shard over the fabric,
  then collects outputs back;
* **aligned** (hierarchical BLOCK + ALIGN'd placement) — a one-time
  scatter puts each shard node-resident, after which offloads pay only
  the cross-node halo (stencil) or nothing at all (axpy).

A repeated workload amortises the scatter: cumulative cost over ``R``
offloads is ``scatter + R * t_aligned`` vs ``R * t_head``.  The artifact
``benchmarks/results/cluster_sweep.json`` records, per (fabric, kernel),
both curves and ``crossover_repeats`` — the first repeat count at which
the aligned hierarchy is ahead.  The qualitative shape this module
asserts: the crossover always arrives (by R=2 even for the halo-paying
stencil), and the aligned advantage grows as inter-node bandwidth drops,
i.e. flat BLOCK loses exactly when the fabric starts to dominate.

A second test pins the scale-down contract at 64 devices: a cluster
whose devices all sit in one node must be *byte-identical* to the
``virtual`` backend — the hierarchy layer adds exactly nothing when
there is no fabric to model.
"""

import json
import pickle

import pytest

from repro.cluster import ClusterSpec, gpu_cluster, run_cluster
from repro.engine import make_backend
from repro.kernels import make_kernel
from repro.machine.interconnect import (
    ETHERNET_10GBE,
    ETHERNET_100GBE,
    INFINIBAND_EDR,
)
from repro.sched import make_scheduler

N_NODES = 64
GPUS_PER_NODE = 8
REPEATS = (1, 2, 4, 8)
FABRICS = (
    ("ethernet-10gbe", ETHERNET_10GBE),
    ("ethernet-100gbe", ETHERNET_100GBE),
    ("infiniband-edr", INFINIBAND_EDR),
)
WORKLOADS = (
    ("axpy", 2_000_000),   # no halo: aligned staging is fully elided
    ("stencil", 1024),     # radius-3 halo: aligned pays boundary rows
)


def _run(cluster, placement, kernel_name, n):
    res = run_cluster(
        cluster, make_kernel(kernel_name, n), make_scheduler("BLOCK"),
        placement=placement,
    )
    cl = res.meta["cluster"]
    return {
        "total_s": res.total_time_s,
        "scatter_s": sum(cl["placement_scatter_s"]),
        "fabric_bytes_in": sum(cl["fabric_bytes_in"]),
        "fabric_bytes_out": sum(cl["fabric_bytes_out"]),
    }


def test_cluster_sweep(results_dir):
    report = {
        "cluster": {
            "n_nodes": N_NODES,
            "gpus_per_node": GPUS_PER_NODE,
            "n_devices": N_NODES * GPUS_PER_NODE,
        },
        "repeats": list(REPEATS),
        "sweep": [],
    }
    assert N_NODES * GPUS_PER_NODE >= 512

    for fabric_name, fabric in FABRICS:
        cluster = gpu_cluster(N_NODES, GPUS_PER_NODE, fabric=fabric)
        for kernel_name, n in WORKLOADS:
            head = _run(cluster, "head", kernel_name, n)
            aligned = _run(cluster, "aligned", kernel_name, n)

            flat_cum = [r * head["total_s"] for r in REPEATS]
            hier_cum = [
                aligned["scatter_s"] + r * aligned["total_s"] for r in REPEATS
            ]
            crossover = next(
                (r for r, f, h in zip(REPEATS, flat_cum, hier_cum) if h < f),
                None,
            )
            report["sweep"].append({
                "fabric": fabric_name,
                "fabric_bandwidth_gbs": fabric.bandwidth_gbs,
                "kernel": kernel_name,
                "n": n,
                "flat_block": head,
                "hierarchical_aligned": aligned,
                "flat_cumulative_s": flat_cum,
                "aligned_cumulative_s": hier_cum,
                "crossover_repeats": crossover,
                "speedup_at_max_repeats": flat_cum[-1] / hier_cum[-1],
            })

    # -- qualitative shape ---------------------------------------------------
    by_kernel = {}
    for row in report["sweep"]:
        by_kernel.setdefault(row["kernel"], []).append(row)

    for kernel_name, rows in by_kernel.items():
        for row in rows:
            # The crossover always arrives while the sweep still runs.
            assert row["crossover_repeats"] is not None, row["fabric"]
            assert row["crossover_repeats"] <= 2
            # ALIGN'd placement moves strictly fewer per-offload bytes
            # than flat restaging, and never collects outputs.
            h, a = row["flat_block"], row["hierarchical_aligned"]
            assert a["fabric_bytes_in"] < h["fabric_bytes_in"]
            assert a["fabric_bytes_out"] == 0.0
            assert h["fabric_bytes_out"] > 0.0
        # The aligned hierarchy ends ahead on every tier, and the slow
        # fabric — where inter-node bandwidth dominates — is where it
        # saves the most absolute time.  (Relative speedup is not
        # monotone in bandwidth for the stencil: EDR's microsecond
        # latency makes the per-offload halo nearly free, so its *ratio*
        # beats 10GbE's even though far less time is at stake.)
        speedup = {r["fabric"]: r["speedup_at_max_repeats"] for r in rows}
        assert all(s > 1.0 for s in speedup.values()), kernel_name
        saved = {
            r["fabric"]: r["flat_cumulative_s"][-1]
            - r["aligned_cumulative_s"][-1]
            for r in rows
        }
        assert saved["ethernet-10gbe"] == max(saved.values()), kernel_name
        assert speedup["ethernet-10gbe"] > 1.5

    # axpy has no halo, so residency alignment elides staging entirely,
    # wins from the very first offload, and the slow tier's amortised
    # speedup is both the largest and decisive.
    axpy_speedup = {
        r["fabric"]: r["speedup_at_max_repeats"] for r in by_kernel["axpy"]
    }
    assert axpy_speedup["ethernet-10gbe"] == max(axpy_speedup.values())
    assert axpy_speedup["ethernet-10gbe"] > 2.0
    for row in by_kernel["axpy"]:
        assert row["hierarchical_aligned"]["fabric_bytes_in"] == 0.0
        assert row["crossover_repeats"] == 1

    (results_dir / "cluster_sweep.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print("\n" + json.dumps(report, indent=2))


@pytest.mark.parametrize("policy", ["BLOCK", "SCHED_DYNAMIC"])
def test_cluster_identity_smoke_64dev(policy):
    """64 devices, one node: ``run_cluster`` is bit-identical to
    ``virtual`` — the CI smoke for the scale-down pin."""
    machine = gpu_cluster(8, 8).flatten()
    assert len(machine) == 64
    cluster = ClusterSpec(name=machine.name, nodes=(machine,))

    kv = make_kernel("axpy", 256_000)
    kc = make_kernel("axpy", 256_000)
    rv = make_backend("virtual", machine).run(kv, make_scheduler(policy))
    rc = run_cluster(cluster, kc, make_scheduler(policy))
    assert pickle.dumps(rv) == pickle.dumps(rc)
