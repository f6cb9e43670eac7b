"""Cluster descriptions: MachineSpec nodes joined by a network fabric.

A :class:`ClusterSpec` lifts the machine model one level: each *node* is
an ordinary :class:`~repro.machine.spec.MachineSpec` (its devices keep
their intra-node PCIe/NVLink :class:`~repro.machine.interconnect.Link`s),
and the nodes hang off one inter-node *fabric* link costed with the same
Hockney alpha-beta model — Ethernet or InfiniBand tiers from
:mod:`repro.machine.interconnect`.  Node 0 is the **head** node: it holds
the host image of every array, so staging under flat (``head``)
placement serialises on its uplink.

Like machine descriptions, clusters round-trip through JSON
(:meth:`ClusterSpec.from_file` / :meth:`ClusterSpec.to_file`) with strict
key checking: a typo in a cluster file raises
:class:`~repro.errors.MachineSpecError` naming the offending key and
file.

Global device ids are node-major: node 0's devices first, then node 1's,
matching :meth:`ClusterSpec.flatten` — the single flat
:class:`~repro.machine.spec.MachineSpec` the runtime and schedulers see.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import MachineSpecError
from repro.machine.interconnect import INFINIBAND_EDR, Link
from repro.machine.presets import k40_spec
from repro.machine.spec import MachineSpec, _check_keys

__all__ = ["ClusterSpec", "gpu_cluster", "homogeneous_cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """An ordered collection of machine nodes joined by one fabric link."""

    name: str
    nodes: tuple[MachineSpec, ...] = field(default_factory=tuple)
    fabric: Link = INFINIBAND_EDR

    #: Top-level JSON keys of a cluster description file.
    FILE_KEYS = frozenset({"name", "nodes", "fabric"})
    FABRIC_KEYS = frozenset({"latency_s", "bandwidth_gbs"})

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

    @property
    def n_devices(self) -> int:
        return sum(len(node) for node in self.nodes)

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

    # -- JSON round-trip -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fabric": {
                "latency_s": self.fabric.latency_s,
                "bandwidth_gbs": (
                    None if self.fabric.is_shared else self.fabric.bandwidth_gbs
                ),
            },
            "nodes": [node.to_dict() for node in self.nodes],
        }

    @classmethod
    def from_dict(
        cls, d: dict, *, source: "str | Path | None" = None
    ) -> "ClusterSpec":
        _check_keys(d, cls.FILE_KEYS, "cluster spec", source)
        fabric_d = d.get("fabric") or {}
        _check_keys(fabric_d, cls.FABRIC_KEYS, "cluster fabric", source)
        try:
            bw = fabric_d.get("bandwidth_gbs")
            fabric = Link(
                latency_s=float(fabric_d.get("latency_s", 0.0)),
                bandwidth_gbs=float("inf") if bw is None else float(bw),
            )
        except ValueError as exc:
            where = f" in {source}" if source is not None else ""
            raise MachineSpecError(f"bad cluster fabric{where}: {exc}") from exc
        try:
            nodes = tuple(
                MachineSpec.from_dict(x, source=source) for x in d["nodes"]
            )
            return cls(name=str(d["name"]), nodes=nodes, fabric=fabric)
        except MachineSpecError:
            raise
        except (KeyError, TypeError) as exc:
            where = f" {source}" if source is not None else ""
            raise MachineSpecError(f"bad cluster spec{where}: {exc}") from exc

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_file(cls, path: str | Path) -> "ClusterSpec":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise MachineSpecError(
                f"cannot read cluster file {path}: {exc}"
            ) from exc
        return cls.from_dict(data, source=path)

    def describe(self) -> str:
        """One line per node, for logs and example output."""
        lines = [
            f"cluster {self.name!r} ({self.n_nodes} nodes, "
            f"{self.n_devices} devices; fabric "
            f"{self.fabric.latency_s * 1e6:.1f} us + "
            f"{self.fabric.bandwidth_gbs:g} GB/s)"
        ]
        for k, node in enumerate(self.nodes):
            lines.append(
                f"  node[{k}] {node.name!r}: {len(node)} devices"
                + (" (head)" if k == 0 else "")
            )
        return "\n".join(lines)


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
