"""Property tests for the node-level decomposition of the cluster backend."""

import pytest
from hypothesis import given, strategies as st

from repro.dist import Block, Cyclic
from repro.dist.hierarchy import node_shards
from repro.errors import DistributionError
from repro.util.ranges import IterRange


regions = st.builds(
    lambda start, length: IterRange(start, start + length),
    st.integers(0, 1000),
    st.integers(0, 5000),
)


class TestNodeShards:
    @given(region=regions, n_nodes=st.integers(1, 17))
    def test_property_exact_cover(self, region, n_nodes):
        shards = node_shards(region, n_nodes)
        assert len(shards) == n_nodes
        assert sum(len(s) for s in shards) == len(region)
        # Contiguous and ordered: each shard starts where the last ended.
        cursor = region.start
        for s in shards:
            assert s.start == cursor
            cursor = s.stop
        assert cursor == region.stop

    @given(
        region=regions,
        weights=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=9),
    )
    def test_property_weighted_exact_cover(self, region, weights):
        shards = node_shards(region, len(weights), weights=weights)
        assert sum(len(s) for s in shards) == len(region)

    def test_bad_node_count_rejected(self):
        with pytest.raises(DistributionError):
            node_shards(IterRange(0, 10), 0)

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(DistributionError):
            node_shards(IterRange(0, 10), 3, weights=[1.0, 2.0])


    @given(
        region=regions,
        device_counts=st.lists(st.integers(1, 8), min_size=1, max_size=6),
        policy=st.sampled_from([Block(), Cyclic()]),
    )
    def test_property_two_level_exact_cover(self, region, device_counts, policy):
        """Node shards, each split by a Table I policy (what the cluster
        engine composes), cover the region exactly once."""
        shards = node_shards(region, len(device_counts))
        covered = sorted(
            i
            for shard, ndev in zip(shards, device_counts)
            for ranges in policy.split(shard, ndev)
            for r in ranges
            for i in r
        )
        assert covered == list(range(region.start, region.stop))

    @given(region=regions)
    def test_property_single_node_is_the_whole_region(self, region):
        assert node_shards(region, 1) == [region]

    def test_weighted_nodes_bias_shards(self):
        shards = node_shards(IterRange(0, 900), 2, weights=[2.0, 1.0])
        assert [len(s) for s in shards] == [600, 300]
