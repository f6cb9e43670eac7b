"""The cluster runner: hierarchical node -> device offload.

A cluster is not an engine: :func:`run_cluster` composes one
:class:`~repro.engine.simulator.OffloadEngine` per node.  One
cluster offload decomposes the loop twice.  The *node* level is a static
contiguous BLOCK split (:func:`~repro.util.ranges.split_block`); each
shard is then executed by a fresh intra-node engine on that node's own
:class:`~repro.machine.spec.MachineSpec`, with the shard presented to the
node's scheduler as the kernel's whole iteration space via
:class:`_ShardKernel`.  Every node plans with its own copy of the
scheduler, so nodes do not learn from each other within one offload.
Everything the intra-node engine already models — pipeline overlap,
PCIe contention, dynamic chunking — is reused unchanged; this module
adds only what is new at cluster scale:

* **Fabric staging.**  Before a node can start, its shard's inputs cross
  the inter-node fabric (one Hockney alpha-beta
  :class:`~repro.machine.interconnect.Link`).  Bytes are charged through
  :class:`~repro.memory.residency.ClusterResidency`, the residency ledger
  at node granularity: under ``head`` placement every non-head node
  stages its full halo-expanded inputs each offload; under ``aligned``
  placement partitioned arrays were pre-scattered to their shard owners
  (a one-time cost the result's meta reports separately), so an offload
  pays only the cross-node halo.  Staging serialises in node order on
  the head node's uplink, which is how a single fat pipe out of the head
  actually behaves.
* **Collection.**  Under ``head`` placement each node's outputs return
  to the head over the fabric after its shard finishes (serialised on
  the head downlink); under ``aligned`` outputs stay node-resident.
* **Observability.**  Intra-node spans pass through a
  :meth:`Tracer.bind <repro.obs.tracer.Tracer.bind>` view, which offsets
  device ids to cluster-global ids, shifts timestamps by the node's
  staging delay and stamps ``node=<k>`` on every span; the cluster layer
  adds its own ``fabric_in`` / ``fabric_out`` spans.

A single-node cluster skips all of the above and runs its node's engine
directly, so its results are **bit-identical** to that engine's — the
pin that keeps the hierarchy honest.

ALIGN intra-node loop schedulers derive their ranges from the full array
extent, not the shard, and raise :class:`~repro.errors.OffloadError`
across nodes; ``placement="aligned"`` is the cluster-level alignment.
"""

from __future__ import annotations

import copy
from dataclasses import replace

from repro.cluster.spec import ClusterSpec
from repro.engine.simulator import OffloadEngine
from repro.engine.trace import DeviceTrace, OffloadResult
from repro.errors import OffloadError
from repro.kernels.base import LoopKernel
from repro.memory.residency import ClusterResidency
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, resolve_tracer
from repro.sched.base import LoopScheduler
from repro.util.ranges import IterRange, split_block

__all__ = ["run_cluster"]

_PLACEMENTS = ("head", "aligned")


class _ShardKernel:
    """A node-local view of a kernel: one shard as the whole loop.

    The wrapper shares the base kernel's arrays, maps, cost model and
    numeric execution — only ``iter_space`` / ``n_iters`` are overridden
    to the shard, **in global coordinates**, so schedulers split the
    shard, chunk costs and input regions (halo clamping included) are
    computed against the true array extents, and ``execute_chunk``
    writes land on the base kernel's rows directly.  Disjoint shards
    therefore compose into exactly the flat kernel's result.
    """

    __slots__ = ("_base", "_shard")

    def __init__(self, base: LoopKernel, shard: IterRange) -> None:
        self._base = base
        self._shard = shard

    @property
    def iter_space(self) -> IterRange:
        return self._shard

    @property
    def n_iters(self) -> int:
        return len(self._shard)

    def __getattr__(self, name: str):
        return getattr(self._base, name)


def run_cluster(
    cluster: ClusterSpec,
    kernel: LoopKernel,
    scheduler: LoopScheduler,
    *,
    placement: str = "head",
    cutoff_ratio: float = 0.0,
    seed: int = 0,
    tracer: Tracer | NullTracer | None = None,
) -> OffloadResult:
    """Offload ``kernel`` across ``cluster``: one virtual engine per node.

    ``placement`` is ``"head"`` (stage everything from the head node each
    offload) or ``"aligned"`` (pre-scatter partitioned arrays to shard
    owners so offloads pay only the cross-node halo).
    """
    if placement not in _PLACEMENTS:
        raise OffloadError(
            f"cluster placement must be one of {_PLACEMENTS}, "
            f"got {placement!r}"
        )
    base_tracer = resolve_tracer(tracer)
    if cluster.n_nodes == 1:
        node = OffloadEngine(
            machine=cluster.nodes[0], seed=seed, tracer=base_tracer
        )
        return node.run(kernel, scheduler, cutoff_ratio=cutoff_ratio)
    if scheduler.notation == "ALIGN":
        raise OffloadError(
            "ALIGN intra-node schedulers derive ranges from the full "
            "array extent and cannot run on a node shard; use "
            "placement='aligned' for cluster-level alignment"
        )

    fabric = cluster.fabric
    n_nodes = cluster.n_nodes
    shards = split_block(kernel.iter_space, n_nodes)
    # Taken before any node runs: node k+1 must not plan with the state
    # node k's run left behind.
    schedulers = [copy.deepcopy(scheduler) for _ in shards]

    residency = ClusterResidency(n_nodes)
    residency.register_kernel(kernel)
    aligned = placement == "aligned"
    if aligned:
        residency.place_aligned(kernel, shards)
        scatter = residency.scatter_bytes(kernel, shards)
    else:
        scatter = [0.0] * n_nodes

    traced = base_tracer.enabled
    bytes_in = [0.0] * n_nodes
    bytes_out = [0.0] * n_nodes
    elided = [0.0] * n_nodes
    stage_in_s = [0.0] * n_nodes
    ready = [0.0] * n_nodes
    node_compute_s = [0.0] * n_nodes
    node_end = [0.0] * n_nodes
    node_results: list[OffloadResult | None] = [None] * n_nodes
    algorithm = scheduler.describe()
    reduction = kernel.identity()
    uplink_free = 0.0  # head uplink cursor

    for k, shard in enumerate(shards):
        base = cluster.node_base(k)
        if shard.empty:
            continue
        b_in, b_out, el_in, el_out = residency.charge_shard(
            k, kernel, shard, collect_outputs=not aligned
        )
        bytes_in[k] = b_in
        bytes_out[k] = b_out
        elided[k] = el_in + el_out
        stage_in_s[k] = fabric.transfer_time(b_in)
        start = uplink_free
        uplink_free = ready[k] = start + stage_in_s[k]
        if traced and stage_in_s[k] > 0.0:
            base_tracer.span(
                "fabric_in", "fabric", base, f"node{k}",
                start, ready[k], node=k, nbytes=b_in,
            )

        node = OffloadEngine(
            machine=cluster.nodes[k],
            seed=seed,
            tracer=(
                base_tracer.bind(node=k, devid_offset=base, t_offset=ready[k])
                if traced
                else NULL_TRACER
            ),
        )
        res = node.run(
            _ShardKernel(kernel, shard), schedulers[k], cutoff_ratio=cutoff_ratio
        )
        node_results[k] = res
        algorithm = res.algorithm
        node_compute_s[k] = res.total_time_s
        node_end[k] = ready[k] + res.total_time_s
        if kernel.is_reduction:
            reduction = kernel.combine(reduction, res.reduction)

    # Collection: under head placement every non-head node returns its
    # outputs over the fabric, serialised on the head downlink in node
    # order; aligned outputs stay node-resident.
    collect_s = [0.0] * n_nodes
    downlink_free = 0.0
    done = list(node_end)
    for k in range(n_nodes):
        if bytes_out[k] <= 0.0:
            continue
        collect_s[k] = fabric.transfer_time(bytes_out[k])
        start = max(downlink_free, node_end[k])
        downlink_free = done[k] = start + collect_s[k]
        if traced:
            base_tracer.span(
                "fabric_out", "fabric", cluster.node_base(k), f"node{k}",
                start, done[k], node=k, nbytes=bytes_out[k],
            )
    total = max(done, default=0.0)

    traces: list[DeviceTrace] = []
    for k in range(n_nodes):
        base = cluster.node_base(k)
        res = node_results[k]
        if res is None:
            traces.extend(
                DeviceTrace(devid=base + i, name=d.name)
                for i, d in enumerate(cluster.nodes[k].devices)
            )
            continue
        traces.extend(
            replace(
                t,
                devid=base + t.devid,
                finish_s=t.finish_s + ready[k] if t.participated else 0.0,
            )
            for t in res.traces
        )

    if traced:
        base_tracer.span(
            "cluster_offload", "offload", -1, "", 0.0, total,
            kernel=kernel.name, algorithm=algorithm,
            cluster=cluster.name, nodes=n_nodes, seed=seed,
        )
        base_tracer.meta.update(machine=cluster.name, cluster=cluster.name)

    return OffloadResult(
        kernel_name=kernel.name,
        algorithm=algorithm,
        total_time_s=total,
        traces=traces,
        reduction=reduction if kernel.is_reduction else None,
        meta={
            "seed": seed,
            "machine": cluster.name,
            "cluster": {
                "name": cluster.name,
                "nodes": n_nodes,
                "placement": placement,
                "fabric": {
                    "latency_s": fabric.latency_s,
                    "bandwidth_gbs": fabric.bandwidth_gbs,
                },
                "shards": [(s.start, s.stop) for s in shards],
                "stage_in_s": stage_in_s,
                "collect_s": collect_s,
                "node_compute_s": node_compute_s,
                "node_finish_s": done,
                "fabric_bytes_in": bytes_in,
                "fabric_bytes_out": bytes_out,
                "fabric_bytes_elided": elided,
                "placement_scatter_bytes": scatter,
                "placement_scatter_s": [
                    fabric.transfer_time(b) for b in scatter
                ],
            },
        },
    )
