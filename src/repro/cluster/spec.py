"""Cluster descriptions: MachineSpec nodes joined by a network fabric.

A :class:`ClusterSpec` lifts the machine model one level: each *node* is
an ordinary :class:`~repro.machine.spec.MachineSpec` (its devices keep
their intra-node PCIe/NVLink :class:`~repro.machine.interconnect.Link`s),
and the nodes hang off one inter-node *fabric* link costed with the same
Hockney alpha-beta model — Ethernet or InfiniBand tiers from
:mod:`repro.machine.interconnect`.  Node 0 is the **head** node: it holds
the host image of every array, so staging under flat (``head``)
placement serialises on its uplink.

Global device ids are node-major: node 0's devices first, then node 1's,
matching :meth:`ClusterSpec.flatten` — the single flat
:class:`~repro.machine.spec.MachineSpec` the runtime and schedulers see.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import MachineSpecError
from repro.machine.interconnect import INFINIBAND_EDR, Link
from repro.machine.presets import k40_spec
from repro.machine.spec import MachineSpec

__all__ = ["ClusterSpec", "gpu_cluster", "homogeneous_cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """An ordered collection of machine nodes joined by one fabric link."""

    name: str
    nodes: tuple[MachineSpec, ...] = field(default_factory=tuple)
    fabric: Link = INFINIBAND_EDR

    def __post_init__(self) -> None:
        if not self.nodes:
            raise MachineSpecError(f"cluster {self.name!r} has no nodes")
        names = [d.name for node in self.nodes for d in node.devices]
        if len(set(names)) != len(names):
            raise MachineSpecError(
                f"cluster {self.name!r} has duplicate device names across "
                "nodes; namespace them (e.g. 'n0/k40-0')"
            )

    # -- geometry -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_base(self, node: int) -> int:
        """Global device id of node ``node``'s first device."""
        if not 0 <= node < len(self.nodes):
            raise MachineSpecError(
                f"node id {node} out of range for cluster {self.name!r}"
            )
        return sum(len(n) for n in self.nodes[:node])

    def flatten(self) -> MachineSpec:
        """The single flat machine the runtime sees (node-major device
        order).  A one-node cluster flattens to its node unchanged, so
        intra-node-only cluster runs are directly comparable — and pinned
        bit-identical — to the engine on that node."""
        if len(self.nodes) == 1:
            return self.nodes[0]
        return MachineSpec(
            name=self.name,
            devices=tuple(d for node in self.nodes for d in node.devices),
        )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def homogeneous_cluster(
    n_nodes: int,
    node: MachineSpec,
    *,
    fabric: Link = INFINIBAND_EDR,
    name: "str | None" = None,
) -> ClusterSpec:
    """``n_nodes`` copies of ``node`` with device names namespaced
    ``n<k>/<device>`` so the flattened machine stays collision-free."""
    if n_nodes <= 0:
        raise MachineSpecError(f"cluster needs >= 1 node, got {n_nodes}")
    nodes = tuple(
        MachineSpec(
            name=f"n{k}/{node.name}",
            devices=tuple(
                replace(d, name=f"n{k}/{d.name}") for d in node.devices
            ),
        )
        for k in range(n_nodes)
    )
    return ClusterSpec(
        name=name or f"{node.name}x{n_nodes}",
        nodes=nodes,
        fabric=fabric,
    )


def gpu_cluster(
    n_nodes: int,
    gpus_per_node: int = 4,
    *,
    fabric: Link = INFINIBAND_EDR,
    noise: float = 0.0,
    name: "str | None" = None,
) -> ClusterSpec:
    """A cluster of identical K40 GPU nodes (the fig5 machine, scaled out)."""
    if gpus_per_node <= 0:
        raise MachineSpecError(
            f"cluster nodes need >= 1 GPU, got {gpus_per_node}"
        )
    node = MachineSpec(
        name=f"gpu{gpus_per_node}",
        devices=tuple(
            k40_spec(f"k40-{i}", noise=noise) for i in range(gpus_per_node)
        ),
    )
    return homogeneous_cluster(
        n_nodes,
        node,
        fabric=fabric,
        name=name or f"gpu{gpus_per_node}x{n_nodes}",
    )
