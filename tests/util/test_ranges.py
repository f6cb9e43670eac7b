"""IterRange and splitting primitives — including the coverage invariants
every distribution policy inherits."""

import pytest
from hypothesis import given, strategies as st

from repro.util.ranges import IterRange, split_block, split_by_weights


class TestIterRange:
    def test_len(self):
        r = IterRange(3, 7)
        assert len(r) == 4

    def test_empty_range(self):
        r = IterRange(5, 5)
        assert r.empty
        assert len(r) == 0

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            IterRange(4, 2)

    def test_intersect_overlapping(self):
        assert IterRange(0, 10).intersect(IterRange(5, 15)) == IterRange(5, 10)

    def test_intersect_disjoint_is_empty(self):
        out = IterRange(0, 4).intersect(IterRange(8, 12))
        assert out.empty

    def test_expand_symmetric(self):
        assert IterRange(5, 8).expand(2, 3) == IterRange(3, 11)

    def test_expand_clamped(self):
        out = IterRange(1, 4).expand(3, 3, clamp=IterRange(0, 5))
        assert out == IterRange(0, 5)

    def test_expand_disjoint_clamp_below_is_empty(self):
        # Regression: a clamp window entirely below the range used to make
        # stop < start and raise ValueError from the IterRange constructor.
        out = IterRange(10, 20).expand(0, 0, clamp=IterRange(0, 5))
        assert out == IterRange(5, 5)
        assert out.empty

    def test_expand_disjoint_clamp_above_is_empty(self):
        out = IterRange(0, 4).expand(0, 0, clamp=IterRange(10, 20))
        assert out == IterRange(10, 10)
        assert out.empty

    def test_expand_negative_halo_collapses_to_empty(self):
        # Negative lo/hi shrink the range; over-shrinking yields empty, not
        # an exception.
        out = IterRange(0, 4).expand(-3, -3)
        assert out.empty

    def test_expand_partial_overlap_still_clamps(self):
        out = IterRange(2, 8).expand(1, 1, clamp=IterRange(4, 6))
        assert out == IterRange(4, 6)

    @given(
        start=st.integers(-100, 100),
        n=st.integers(0, 100),
        lo=st.integers(-50, 50),
        hi=st.integers(-50, 50),
        c0=st.integers(-100, 100),
        cn=st.integers(0, 100),
    )
    def test_property_expand_never_raises_and_respects_clamp(
        self, start, n, lo, hi, c0, cn
    ):
        clamp = IterRange(c0, c0 + cn)
        out = IterRange(start, start + n).expand(lo, hi, clamp=clamp)
        assert out.stop >= out.start
        assert out.start >= clamp.start
        assert out.stop <= clamp.stop

    def test_take_splits_head(self):
        head, rest = IterRange(0, 10).take(4)
        assert head == IterRange(0, 4)
        assert rest == IterRange(4, 10)

    def test_take_more_than_available(self):
        head, rest = IterRange(0, 3).take(10)
        assert head == IterRange(0, 3)
        assert rest.empty

    def test_take_negative_clamped_to_zero(self):
        head, rest = IterRange(0, 3).take(-1)
        assert head.empty
        assert rest == IterRange(0, 3)


class TestSplitBlock:
    def test_even_split(self):
        parts = split_block(IterRange(0, 12), 4)
        assert [len(p) for p in parts] == [3, 3, 3, 3]

    def test_remainder_goes_to_first_parts(self):
        # Matches the paper's Fig. 1 axpy_omp_mdev remainder handling.
        parts = split_block(IterRange(0, 10), 4)
        assert [len(p) for p in parts] == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        parts = split_block(IterRange(0, 2), 5)
        assert [len(p) for p in parts] == [1, 1, 0, 0, 0]

    def test_nonzero_start_preserved(self):
        parts = split_block(IterRange(100, 110), 2)
        assert parts[0] == IterRange(100, 105)
        assert parts[1] == IterRange(105, 110)

    def test_zero_parts_rejected(self):
        with pytest.raises(ValueError):
            split_block(IterRange(0, 10), 0)

    @given(
        n=st.integers(0, 10_000),
        start=st.integers(-1000, 1000),
        parts=st.integers(1, 64),
    )
    def test_property_exact_tiling(self, n, start, parts):
        rng = IterRange(start, start + n)
        out = split_block(rng, parts)
        assert len(out) == parts
        # contiguous, ordered, and exactly covering
        pos = rng.start
        for p in out:
            assert p.start == pos
            pos = p.stop
        assert pos == rng.stop
        # balanced: sizes differ by at most 1
        sizes = [len(p) for p in out]
        assert max(sizes) - min(sizes) <= 1


class TestSplitByWeights:
    def test_proportional(self):
        parts = split_by_weights(IterRange(0, 100), [1.0, 3.0])
        assert [len(p) for p in parts] == [25, 75]

    def test_zero_weight_gets_empty(self):
        parts = split_by_weights(IterRange(0, 10), [0.0, 1.0])
        assert parts[0].empty
        assert len(parts[1]) == 10

    def test_all_zero_weights_fall_back_to_first(self):
        parts = split_by_weights(IterRange(0, 10), [0.0, 0.0, 0.0])
        assert [len(p) for p in parts] == [10, 0, 0]

    def test_negative_weights_treated_as_zero(self):
        parts = split_by_weights(IterRange(0, 10), [-5.0, 1.0])
        assert parts[0].empty

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            split_by_weights(IterRange(0, 10), [])

    def test_largest_remainder_rounding(self):
        # 10 iters, weights 1:1:1 -> 4,3,3 (first gets the remainder)
        parts = split_by_weights(IterRange(0, 10), [1.0, 1.0, 1.0])
        assert sum(len(p) for p in parts) == 10
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    @given(
        n=st.integers(0, 5000),
        weights=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=16),
    )
    def test_property_exact_tiling(self, n, weights):
        rng = IterRange(0, n)
        parts = split_by_weights(rng, weights)
        assert len(parts) == len(weights)
        pos = 0
        for p in parts:
            assert p.start == pos
            pos = p.stop
        assert pos == n

    @given(n=st.integers(100, 5000), ratio=st.floats(0.01, 100, allow_nan=False))
    def test_property_rounding_error_bounded(self, n, ratio):
        parts = split_by_weights(IterRange(0, n), [1.0, ratio])
        exact = n * ratio / (1 + ratio)
        assert abs(len(parts[1]) - exact) <= 1.0
