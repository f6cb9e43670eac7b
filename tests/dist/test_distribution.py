"""DimDistribution invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.dist.distribution import DimDistribution
from repro.dist.policy import Auto, Block, Full
from repro.errors import DistributionError
from repro.util.ranges import IterRange


def sizes(d):
    return tuple(d.device_size(dev) for dev in range(d.ndev))


def block_dist(n=10, ndev=3):
    return DimDistribution.from_policy(Block(), IterRange(0, n), ndev)


class TestDimDistribution:
    def test_from_block_policy(self):
        d = block_dist(10, 3)
        assert sizes(d) == (4, 3, 3)
        assert not d.replicated

    def test_from_full_policy_is_replicated(self):
        d = DimDistribution.from_policy(Full(), IterRange(0, 10), 3)
        assert d.replicated
        assert sizes(d) == (10, 10, 10)

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

    def test_scaled_by_integer_ratio(self):
        d = block_dist(10, 2)
        s = d.scaled(2.0, Block())
        assert len(s.region) == 20
        assert sizes(s) == (10, 10)
        assert s.device_ranges(0)[0] == IterRange(0, 10)

    def test_scaled_invalid_ratio(self):
        with pytest.raises(DistributionError):
            block_dist().scaled(0.0, Block())

    @given(n=st.integers(0, 300), ndev=st.integers(1, 8))
    def test_property_block_cover_disjoint(self, n, ndev):
        d = DimDistribution.from_policy(Block(), IterRange(0, n), ndev)
        seen = set()
        for dev in range(ndev):
            for r in d.device_ranges(dev):
                for i in range(r.start, r.stop):
                    assert i not in seen
                    seen.add(i)
        assert seen == set(range(n))
