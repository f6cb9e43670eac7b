"""Unit conversions."""

from repro.util.units import (
    fmt_ms,
    gbs_to_bytes_per_s,
    gflops_to_flops,
    seconds_to_ms,
)


def test_gflops_conversion():
    assert gflops_to_flops(1.5) == 1.5e9


def test_bandwidth_conversion_is_decimal():
    # vendors quote decimal GB/s
    assert gbs_to_bytes_per_s(11.0) == 11e9


def test_seconds_to_ms():
    assert seconds_to_ms(0.123) == 123.0


def test_fmt_ms_scales_precision():
    assert fmt_ms(0.5) == "500.0 ms"
    assert fmt_ms(0.005) == "5.00 ms"
    assert fmt_ms(0.0000005) == "0.0005 ms"
