"""Multi-node cluster model: machine nodes on a fabric, run hierarchically.

* :class:`~repro.cluster.spec.ClusterSpec` — an ordered tuple of
  :class:`~repro.machine.spec.MachineSpec` nodes joined by one inter-node
  fabric :class:`~repro.machine.interconnect.Link`, with JSON round-trip
  and presets (:func:`~repro.cluster.spec.gpu_cluster`,
  :func:`~repro.cluster.spec.homogeneous_cluster`).
* :func:`~repro.cluster.engine.run_cluster` — a function, not an
  engine: node-level BLOCK split, one engine per node shard, fabric
  staging charged through the node-level residency ledger.  A
  single-node cluster is bit-identical to its node's engine.
"""

from repro.cluster.spec import ClusterSpec, gpu_cluster, homogeneous_cluster
from repro.cluster.engine import run_cluster

__all__ = [
    "ClusterSpec",
    "run_cluster",
    "gpu_cluster",
    "homogeneous_cluster",
]
