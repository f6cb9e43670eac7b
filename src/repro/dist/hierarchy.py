"""Node-level decomposition for the cluster backend.

A cluster offload splits one iteration range twice: first across *nodes*
(contiguous shards — BLOCK, or throughput-weighted BLOCK for
heterogeneous clusters), then each shard across the node's *devices*.
Only the node level is static and lives here (:func:`node_shards`); the
cluster engine hands each shard to a real intra-node scheduler, which may
re-split it dynamically.  The invariant the property tests pin: the
shards are contiguous, ordered and cover the region exactly once.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DistributionError
from repro.util.ranges import IterRange, split_block, split_by_weights

__all__ = ["node_shards"]


def node_shards(
    region: IterRange,
    n_nodes: int,
    *,
    weights: "Sequence[float] | None" = None,
) -> list[IterRange]:
    """Contiguous per-node shards of ``region`` (the node-level split).

    Even BLOCK by default; with ``weights`` (one per node, e.g. aggregate
    modeled throughputs) the shards are proportional with
    largest-remainder rounding, so they always sum to ``len(region)``.
    """
    if n_nodes <= 0:
        raise DistributionError(f"n_nodes must be positive, got {n_nodes}")
    if weights is None:
        return split_block(region, n_nodes)
    if len(weights) != n_nodes:
        raise DistributionError(
            f"got {len(weights)} node weights for {n_nodes} nodes"
        )
    return split_by_weights(region, weights)
