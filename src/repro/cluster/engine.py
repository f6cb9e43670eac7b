"""The ``cluster`` execution backend: hierarchical node -> device offload.

One cluster offload decomposes the loop twice.  The *node* level is a
static contiguous split (:func:`repro.dist.hierarchy.node_shards` — BLOCK
by default, throughput-weighted for heterogeneous clusters); each shard
is then executed by a fresh intra-node :class:`~repro.engine.simulator.
OffloadEngine` on that node's own :class:`~repro.machine.spec.
MachineSpec`, with the shard presented to the node's scheduler as the
kernel's whole iteration space via :class:`_ShardKernel`.  Everything the
intra-node engine already models — pipeline overlap, PCIe contention,
dynamic chunking — is reused unchanged; this module adds only what is
new at cluster scale:

* **Fabric staging.**  Before a node can start, its shard's inputs cross
  the inter-node fabric (one Hockney alpha-beta
  :class:`~repro.machine.interconnect.Link`).  Bytes are charged through
  :class:`~repro.memory.residency.ClusterResidency`, the PR 5 ledger at
  node granularity: under ``head`` placement every non-head node stages
  its full halo-expanded inputs each offload; under ``aligned``
  placement partitioned arrays were pre-scattered to their shard owners
  (a one-time cost the result's meta reports separately), so an offload
  pays only the cross-node halo.  With ``fabric_shared=True`` (default)
  staging serialises in node order on the head node's uplink, which is
  how a single fat pipe out of the head actually behaves.
* **Collection.**  Under ``head`` placement each node's outputs return
  to the head over the fabric after its shard finishes (serialised on
  the head downlink); under ``aligned`` outputs stay node-resident.
* **Observability.**  Intra-node spans pass through a
  :meth:`Tracer.bind <repro.obs.tracer.Tracer.bind>` view, which offsets
  device ids to cluster-global ids, shifts timestamps by the node's
  staging delay and stamps ``node=<k>`` on every span; the cluster layer
  adds its own ``fabric_in`` / ``fabric_out`` spans.

A single-node cluster (or a bare ``MachineSpec``) skips all of the
above and delegates wholesale to one intra-node engine, so its results
are **bit-identical** to the ``virtual`` backend — the pin that keeps
the hierarchy honest.

Not supported across nodes (each raises :class:`~repro.errors.
OffloadError`): ALIGN intra-node loop schedulers (they derive their
ranges from the full array extent, not the shard), fault plans and
event recording (both are per-run-context features that would need
cluster-global identity to merge), and device-level residency regions
(the cluster keeps its own node ledger).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.spec import ClusterSpec
from repro.engine.core import EngineBase, register_backend
from repro.engine.simulator import OffloadEngine
from repro.engine.trace import DeviceTrace, OffloadResult
from repro.errors import OffloadError
from repro.kernels.base import LoopKernel
from repro.machine.interconnect import SHARED_LINK
from repro.memory.residency import ClusterResidency
from repro.memory.unified import UnifiedMemoryModel
from repro.obs.tracer import NULL_TRACER, resolve_tracer
from repro.sched.base import LoopScheduler
from repro.util.ranges import IterRange
from repro.dist.hierarchy import node_shards

__all__ = ["ClusterEngine"]

_PLACEMENTS = ("head", "aligned")
_NODE_SPLITS = ("block", "weighted")


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


@dataclass
class ClusterEngine(EngineBase):
    """Hierarchical executor: node-level split over intra-node engines."""

    #: Registry name of this backend.
    backend_name = "cluster"
    clock = "virtual"
    pipelined = False  # every stream batch starts from a drained pipeline

    # Not annotated (stays a class attribute, not a field): aggregated
    # (devid, chunk) log of the last multi-node run, None after a
    # single-node run (which exposes the inner context instead).
    _cluster_chunk_log = None

    #: The cluster this engine executes on.  None wraps ``machine`` as a
    #: degenerate single-node cluster; otherwise ``machine`` must equal
    #: ``cluster.flatten()`` (build via :meth:`for_cluster`).
    cluster: "ClusterSpec | None" = None
    # The intra-node engines' timing model (see OffloadEngine).
    serialize_offload: bool = False
    double_buffer: bool = True
    unified_model: UnifiedMemoryModel = field(default_factory=UnifiedMemoryModel)
    #: Cluster data placement: ``"head"`` stages everything from the head
    #: node each offload; ``"aligned"`` pre-scatters partitioned arrays
    #: to shard owners so offloads pay only the cross-node halo.
    placement: str = "head"
    #: Node-level split: ``"block"`` (even) or ``"weighted"`` (by each
    #: node's aggregate sustained GFLOPS).
    node_split: str = "block"
    #: Whether fabric staging serialises on the head uplink (one shared
    #: pipe) or every node stages concurrently (private uplinks).
    fabric_shared: bool = True

    def __post_init__(self) -> None:
        if self.placement not in _PLACEMENTS:
            raise OffloadError(
                f"cluster placement must be one of {_PLACEMENTS}, "
                f"got {self.placement!r}"
            )
        if self.node_split not in _NODE_SPLITS:
            raise OffloadError(
                f"cluster node_split must be one of {_NODE_SPLITS}, "
                f"got {self.node_split!r}"
            )
        if self.cluster is None:
            self.cluster = ClusterSpec(
                name=self.machine.name,
                nodes=(self.machine,),
                fabric=SHARED_LINK,
            )
        elif self.cluster.flatten() != self.machine:
            raise OffloadError(
                f"cluster {self.cluster.name!r} does not flatten to machine "
                f"{self.machine.name!r}; build the engine via "
                "ClusterEngine.for_cluster(cluster, ...)"
            )

    @classmethod
    def for_cluster(cls, cluster: ClusterSpec, **options) -> "ClusterEngine":
        """The usual constructor: machine derived from the cluster."""
        return cls(machine=cluster.flatten(), cluster=cluster, **options)

    # -- introspection ---------------------------------------------------------

    @property
    def chunk_log(self) -> list[tuple[int, IterRange]]:
        """(devid, chunk) assignments of the last run, devids global."""
        if self._cluster_chunk_log is not None:
            return list(self._cluster_chunk_log)
        return list(self._run_ctx.chunk_log) if self._run_ctx else []

    # -- execution -------------------------------------------------------------

    def run(
        self,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        *,
        cutoff_ratio: float = 0.0,
    ) -> OffloadResult:
        with self._run_slot():
            if self.cluster.n_nodes == 1:
                return self._run_single(kernel, scheduler, cutoff_ratio)
            return self._run_multi(kernel, scheduler, cutoff_ratio)

    def _run_single(
        self,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        cutoff_ratio: float,
    ) -> OffloadResult:
        """One-node cluster: wholesale delegation to the intra-node
        engine — results are bit-identical to the ``virtual`` backend."""
        inner = self._delegate(OffloadEngine)
        result = inner.run(kernel, scheduler, cutoff_ratio=cutoff_ratio)
        self._cluster_chunk_log = None
        self._run_ctx = inner._run_ctx  # expose chunk_log/timeline/faults
        return result

    def _run_multi(
        self,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        cutoff_ratio: float,
    ) -> OffloadResult:
        cluster = self.cluster
        fabric = cluster.fabric
        n_nodes = cluster.n_nodes

        if self.record_events:
            raise OffloadError(
                "cluster backend cannot record chunk events across nodes; "
                "run the per-node timeline on the virtual backend instead"
            )
        if self.fault_plan is not None and not self.fault_plan.empty:
            raise OffloadError(
                "cluster backend does not inject faults across nodes; "
                "fault-plan device ids are node-local and would alias"
            )
        if self.residency is not None:
            raise OffloadError(
                "cluster backend keeps its own node-level residency "
                "ledger; device-level residency regions apply only to "
                "single-node runs"
            )
        if scheduler.notation == "ALIGN":
            raise OffloadError(
                "ALIGN intra-node schedulers derive ranges from the full "
                "array extent and cannot run on a node shard; use "
                "placement='aligned' for cluster-level alignment"
            )

        weights = None
        if self.node_split == "weighted":
            weights = [
                sum(d.sustained_gflops for d in node.devices)
                for node in cluster.nodes
            ]
        shards = node_shards(kernel.iter_space, n_nodes, weights=weights)
        if sum(len(s) for s in shards) != kernel.n_iters:
            raise OffloadError(
                "node shards do not cover the iteration space"
            )  # pragma: no cover - node_shards guarantees exact cover

        residency = ClusterResidency(n_nodes)
        residency.register_kernel(kernel)
        aligned = self.placement == "aligned"
        if aligned:
            residency.place_aligned(kernel, shards)
            scatter = residency.scatter_bytes(kernel, shards)
        else:
            scatter = [0.0] * n_nodes

        base_tracer = resolve_tracer(self.tracer)
        traced = base_tracer.enabled

        bytes_in = [0.0] * n_nodes
        bytes_out = [0.0] * n_nodes
        elided = [0.0] * n_nodes
        stage_in_s = [0.0] * n_nodes
        ready = [0.0] * n_nodes
        node_compute_s = [0.0] * n_nodes
        node_end = [0.0] * n_nodes
        node_results: list[OffloadResult | None] = [None] * n_nodes
        chunk_log: list[tuple[int, IterRange]] = []
        reduction = kernel.identity()
        uplink_free = 0.0  # head uplink cursor (fabric_shared staging)

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
            if self.fabric_shared:
                start = uplink_free
                uplink_free = start + stage_in_s[k]
            else:
                start = 0.0
            ready[k] = start + stage_in_s[k]
            if traced and stage_in_s[k] > 0.0:
                base_tracer.span(
                    "fabric_in", "fabric", base, f"node{k}",
                    start, ready[k], node=k, nbytes=b_in,
                )

            tracer = (
                base_tracer.bind(node=k, devid_offset=base, t_offset=ready[k])
                if traced
                else NULL_TRACER
            )
            inner = self._delegate(
                OffloadEngine,
                machine=cluster.nodes[k],
                tracer=tracer,
                fault_plan=None,
                residency=None,
            )
            res = inner.run(
                _ShardKernel(kernel, shard),
                scheduler,
                cutoff_ratio=cutoff_ratio,
            )
            node_results[k] = res
            node_compute_s[k] = res.total_time_s
            node_end[k] = ready[k] + res.total_time_s
            if kernel.is_reduction:
                reduction = kernel.combine(reduction, res.reduction)
            if self.collect_chunks and inner._run_ctx is not None:
                chunk_log.extend(
                    (base + devid, chunk)
                    for devid, chunk in inner._run_ctx.chunk_log
                )

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
            if self.fabric_shared:
                start = max(downlink_free, node_end[k])
                downlink_free = start + collect_s[k]
            else:
                start = node_end[k]
            done[k] = start + collect_s[k]
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
                kernel=kernel.name, algorithm=scheduler.describe(),
                cluster=cluster.name, nodes=n_nodes, seed=self.seed,
            )
            base_tracer.meta.update(
                machine=self.machine.name, cluster=cluster.name
            )

        self._cluster_chunk_log = chunk_log if self.collect_chunks else None
        return OffloadResult(
            kernel_name=kernel.name,
            algorithm=scheduler.describe(),
            total_time_s=total,
            traces=traces,
            reduction=reduction if kernel.is_reduction else None,
            meta={
                "seed": self.seed,
                "machine": self.machine.name,
                "cluster": {
                    "name": cluster.name,
                    "nodes": n_nodes,
                    "placement": self.placement,
                    "node_split": self.node_split,
                    "fabric": {
                        "latency_s": fabric.latency_s,
                        "bandwidth_gbs": fabric.bandwidth_gbs,
                    },
                    "fabric_shared": self.fabric_shared,
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


register_backend("cluster", ClusterEngine, aliases=("multinode",))
