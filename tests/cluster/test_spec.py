"""ClusterSpec geometry and presets."""

import pytest

from repro.cluster import ClusterSpec, gpu_cluster, homogeneous_cluster
from repro.errors import MachineSpecError
from repro.machine.interconnect import INFINIBAND_EDR
from repro.machine.presets import full_node, gpu4_node


class TestGeometry:
    def test_counts(self):
        c = gpu_cluster(4, 2)
        assert c.n_nodes == 4
        assert len(c.flatten()) == 8

    def test_node_base_is_node_major(self):
        c = gpu_cluster(3, 4)
        assert [c.node_base(k) for k in range(3)] == [0, 4, 8]

    def test_out_of_range_ids_rejected(self):
        c = gpu_cluster(2, 2)
        with pytest.raises(MachineSpecError):
            c.node_base(-1)
        with pytest.raises(MachineSpecError):
            c.node_base(2)

    def test_empty_cluster_rejected(self):
        with pytest.raises(MachineSpecError):
            ClusterSpec(name="empty", nodes=())

    def test_duplicate_device_names_across_nodes_rejected(self):
        node = gpu4_node()
        with pytest.raises(MachineSpecError, match="duplicate"):
            ClusterSpec(name="dup", nodes=(node, node))


class TestFlatten:
    def test_single_node_flattens_to_the_node_itself(self):
        node = gpu4_node()
        c = ClusterSpec(name="solo", nodes=(node,))
        assert c.flatten() is node

    def test_multi_node_flatten_is_node_major(self):
        c = gpu_cluster(2, 3)
        flat = c.flatten()
        assert len(flat) == 6
        assert [d.name for d in flat.devices[:3]] == [
            d.name for d in c.nodes[0].devices
        ]

    def test_flatten_name_is_cluster_name(self):
        c = gpu_cluster(2, 2, name="pair")
        assert c.flatten().name == "pair"


class TestPresets:
    def test_homogeneous_cluster_namespaces_devices(self):
        c = homogeneous_cluster(2, gpu4_node())
        names = [d.name for d in c.flatten().devices]
        assert names[0].startswith("n0/")
        assert names[-1].startswith("n1/")
        assert len(set(names)) == len(names)

    def test_heterogeneous_nodes_allowed(self):
        c = ClusterSpec(
            name="mixed",
            nodes=(
                homogeneous_cluster(1, gpu4_node()).nodes[0],
                homogeneous_cluster(2, full_node()).nodes[1],
            ),
        )
        assert [len(node) for node in c.nodes] == [4, len(full_node())]

    def test_gpu_cluster_default_fabric(self):
        assert gpu_cluster(2, 2).fabric == INFINIBAND_EDR

    def test_bad_sizes_rejected(self):
        with pytest.raises(MachineSpecError):
            gpu_cluster(0, 4)
        with pytest.raises(MachineSpecError):
            gpu_cluster(2, 0)


@pytest.mark.parametrize("n", [True, 2.5])
def test_homogeneous_cluster_node_count_must_be_an_int(n):
    # True would otherwise build a one-node cluster.
    with pytest.raises(MachineSpecError, match="node count must be an int"):
        homogeneous_cluster(n, gpu4_node())
