"""Unit helpers: the machine model mixes GFLOP/s, GB/s, bytes and seconds.

Keeping the conversions in one place avoids the classic off-by-1e9 bugs in
cost models.  All internal times are seconds; public reports use
milliseconds to match the paper's figures.
"""

from __future__ import annotations

__all__ = [
    "GIGA",
    "gflops_to_flops",
    "gbs_to_bytes_per_s",
    "seconds_to_ms",
    "fmt_ms",
]

GIGA = 1e9


def gflops_to_flops(gflops: float) -> float:
    """GFLOP/s -> FLOP/s."""
    return gflops * GIGA


def gbs_to_bytes_per_s(gbs: float) -> float:
    """GB/s (decimal, as vendors quote) -> bytes/s."""
    return gbs * GIGA


def seconds_to_ms(t: float) -> float:
    return t * 1e3


def fmt_ms(t_seconds: float) -> str:
    """Format a duration in seconds as milliseconds for reports."""
    ms = seconds_to_ms(t_seconds)
    if ms >= 100:
        return f"{ms:.1f} ms"
    if ms >= 1:
        return f"{ms:.2f} ms"
    return f"{ms:.4f} ms"
