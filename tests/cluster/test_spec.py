"""ClusterSpec geometry, presets and the JSON round-trip."""

import pytest

from repro.cluster import ClusterSpec, gpu_cluster, homogeneous_cluster
from repro.errors import MachineSpecError
from repro.machine.interconnect import ETHERNET_10GBE, INFINIBAND_EDR
from repro.machine.presets import full_node, gpu4_node


class TestGeometry:
    def test_counts(self):
        c = gpu_cluster(4, 2)
        assert c.n_nodes == 4
        assert c.n_devices == 8

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


class TestClusterFile:
    def test_round_trip(self, tmp_path):
        c = gpu_cluster(3, 2, fabric=ETHERNET_10GBE)
        path = tmp_path / "cluster.json"
        c.to_file(path)
        assert ClusterSpec.from_file(path) == c

    def test_round_trip_preserves_fabric(self, tmp_path):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        path = tmp_path / "cluster.json"
        c.to_file(path)
        c2 = ClusterSpec.from_file(path)
        assert c2.fabric.latency_s == ETHERNET_10GBE.latency_s
        assert c2.fabric.bandwidth_gbs == ETHERNET_10GBE.bandwidth_gbs

    def test_unknown_cluster_key_named(self, tmp_path):
        import json

        d = gpu_cluster(2, 2).to_dict()
        d["fabic"] = d.pop("fabric")
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(d))
        with pytest.raises(MachineSpecError) as exc:
            ClusterSpec.from_file(path)
        assert "fabic" in str(exc.value)
        assert str(path) in str(exc.value)

    def test_unknown_fabric_key_named(self, tmp_path):
        import json

        d = gpu_cluster(2, 2).to_dict()
        d["fabric"]["alpha"] = 1.0
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(d))
        with pytest.raises(MachineSpecError, match="alpha"):
            ClusterSpec.from_file(path)

    def test_unknown_nested_device_key_named(self, tmp_path):
        import json

        d = gpu_cluster(2, 2).to_dict()
        d["nodes"][1]["devices"][0]["gflops"] = 1.0
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(d))
        with pytest.raises(MachineSpecError) as exc:
            ClusterSpec.from_file(path)
        assert "gflops" in str(exc.value)
        assert str(path) in str(exc.value)

    def test_missing_file_raises_spec_error(self, tmp_path):
        with pytest.raises(MachineSpecError):
            ClusterSpec.from_file(tmp_path / "nope.json")

    def test_repo_example_cluster_loads(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "machines" / "gpu_cluster_4x4.json"
        c = ClusterSpec.from_file(path)
        assert c.n_nodes == 4
        assert c.n_devices == 16

    def test_describe_mentions_head(self):
        text = gpu_cluster(2, 2).describe()
        assert "(head)" in text
        assert "2 nodes" in text
