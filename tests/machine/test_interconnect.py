"""Hockney-model links."""

import pytest
from hypothesis import given, strategies as st

from repro.machine.interconnect import (
    ETHERNET_10GBE,
    ETHERNET_100GBE,
    INFINIBAND_EDR,
    INFINIBAND_HDR,
    Link,
    SHARED_LINK,
)


def test_transfer_time_is_alpha_plus_size_over_beta():
    link = Link(latency_s=10e-6, bandwidth_gbs=10.0)
    assert link.transfer_time(10e9) == pytest.approx(10e-6 + 1.0)


def test_zero_bytes_is_free():
    link = Link(latency_s=10e-6, bandwidth_gbs=10.0)
    assert link.transfer_time(0) == 0.0


def test_shared_link_is_free():
    assert SHARED_LINK.is_shared
    assert SHARED_LINK.transfer_time(1e12) == 0.0


def test_negative_bytes_rejected():
    with pytest.raises(ValueError):
        Link(0.0, 1.0).transfer_time(-1)


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        Link(-1e-6, 1.0)


def test_nonpositive_bandwidth_rejected():
    with pytest.raises(ValueError):
        Link(0.0, 0.0)


@given(
    alpha=st.floats(0, 1e-3, allow_nan=False),
    beta=st.floats(0.1, 100, allow_nan=False),
    a=st.floats(0, 1e9, allow_nan=False),
    b=st.floats(0, 1e9, allow_nan=False),
)
def test_property_monotone_in_size(alpha, beta, a, b):
    link = Link(alpha, beta)
    lo, hi = sorted([a, b])
    assert link.transfer_time(lo) <= link.transfer_time(hi)


class TestSharedLinkLatency:
    """Regression: shared links silently dropped their latency term.

    ``transfer_time`` returns 0.0 for any shared link, so a nonzero
    ``latency_s`` configured on one was never charged anywhere.  The
    constructor now rejects the combination outright.
    """

    def test_shared_link_with_latency_rejected(self):
        with pytest.raises(ValueError, match="shared link"):
            Link(latency_s=5e-6, bandwidth_gbs=float("inf"))

    def test_shared_link_without_latency_fine(self):
        assert Link(0.0, float("inf")).is_shared

    def test_latency_on_real_link_still_charged(self):
        link = Link(latency_s=5e-6, bandwidth_gbs=10.0)
        assert link.transfer_time(1) >= 5e-6


class TestZeroByteContract:
    """Pin the empty-transfer semantics: zero bytes means no launch.

    ``transfer_time(0) == 0.0`` on every link (not ``latency_s`` — no
    message was sent, so no alpha is paid), and any nonzero transfer
    pays at least the latency.
    """

    def test_zero_bytes_never_pays_latency(self):
        for link in (
            Link(50e-6, 1.25),
            ETHERNET_10GBE,
            ETHERNET_100GBE,
            INFINIBAND_EDR,
            INFINIBAND_HDR,
        ):
            assert link.transfer_time(0) == 0.0

    def test_one_byte_pays_at_least_latency(self):
        link = Link(latency_s=50e-6, bandwidth_gbs=1.25)
        assert link.transfer_time(1) >= 50e-6

    @given(nbytes=st.floats(min_value=1e-9, max_value=1e12))
    def test_property_nonzero_transfers_dominate_latency(self, nbytes):
        link = Link(latency_s=1e-6, bandwidth_gbs=12.0)
        assert link.transfer_time(nbytes) >= link.latency_s


class TestFabricPresets:
    def test_presets_are_not_shared(self):
        for link in (
            ETHERNET_10GBE, ETHERNET_100GBE, INFINIBAND_EDR, INFINIBAND_HDR
        ):
            assert not link.is_shared
            assert link.latency_s > 0.0

    def test_infiniband_beats_ethernet_on_small_messages(self):
        assert INFINIBAND_EDR.transfer_time(4096) < ETHERNET_10GBE.transfer_time(4096)

    def test_faster_tiers_order(self):
        n = 1 << 20
        assert INFINIBAND_HDR.transfer_time(n) < INFINIBAND_EDR.transfer_time(n)
        assert ETHERNET_100GBE.transfer_time(n) < ETHERNET_10GBE.transfer_time(n)
