"""DimDistribution invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.dist.distribution import DimDistribution
from repro.dist.policy import Auto, Block, Cyclic, Full
from repro.errors import DistributionError
from repro.util.ranges import IterRange


def block_dist(n=10, ndev=3):
    return DimDistribution.from_policy(Block(), IterRange(0, n), ndev)


class TestDimDistribution:
    def test_from_block_policy(self):
        d = block_dist(10, 3)
        assert d.sizes() == (4, 3, 3)
        assert not d.replicated

    def test_from_full_policy_is_replicated(self):
        d = DimDistribution.from_policy(Full(), IterRange(0, 10), 3)
        assert d.replicated
        assert d.sizes() == (10, 10, 10)

    def test_runtime_policy_rejected(self):
        with pytest.raises(DistributionError):
            DimDistribution.from_policy(Auto(), IterRange(0, 10), 2)

    def test_coverage_enforced(self):
        with pytest.raises(DistributionError):
            DimDistribution(
                region=IterRange(0, 10),
                parts=((IterRange(0, 3),), (IterRange(3, 6),)),  # misses 6..10
                policy=Block(),
            )

    def test_owner_of(self):
        d = block_dist(10, 3)
        assert d.owner_of(0) == 0
        assert d.owner_of(4) == 1
        assert d.owner_of(9) == 2

    def test_owner_of_outside_region(self):
        with pytest.raises(DistributionError):
            block_dist().owner_of(99)

    def test_scaled_by_integer_ratio(self):
        d = block_dist(10, 2)
        s = d.scaled(2.0, Block())
        assert len(s.region) == 20
        assert s.sizes() == (10, 10)
        assert s.device_ranges(0)[0] == IterRange(0, 10)

    def test_scaled_invalid_ratio(self):
        with pytest.raises(DistributionError):
            block_dist().scaled(0.0, Block())

    def test_from_chunks(self):
        chunks = [IterRange(0, 7), IterRange(7, 7), IterRange(7, 10)]
        d = DimDistribution.from_chunks(IterRange(0, 10), chunks, Block())
        assert d.sizes() == (7, 0, 3)
        assert d.device_ranges(1) == ()

    @given(n=st.integers(0, 300), ndev=st.integers(1, 8))
    def test_property_block_cover_disjoint(self, n, ndev):
        d = DimDistribution.from_policy(Block(), IterRange(0, n), ndev)
        seen = set()
        for dev in range(ndev):
            for r in d.device_ranges(dev):
                for i in r:
                    assert i not in seen
                    seen.add(i)
        assert seen == set(range(n))

    @given(n=st.integers(1, 200), ndev=st.integers(1, 6), chunk=st.integers(1, 9))
    def test_property_cyclic_owner_round_robin(self, n, ndev, chunk):
        d = DimDistribution.from_policy(Cyclic(chunk), IterRange(0, n), ndev)
        for i in range(n):
            assert d.owner_of(i) == (i // chunk) % ndev
