"""Hockney "alpha-beta" communication model (paper ref [11]).

``T(n) = alpha + n / beta`` for an ``n``-byte transfer.  The forward model
is :meth:`repro.machine.interconnect.Link.transfer_time`; this module
provides the least-squares *fit* of (alpha, beta) from measured
(size, time) pairs — the paper obtains its machine constants "through
microbenchmark profiling", and :func:`repro.bench.microbench.probe_link`
uses this fit the same way.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["fit_hockney"]


def fit_hockney(
    sizes: Sequence[float], times: Sequence[float]
) -> tuple[float, float]:
    """Least-squares fit of ``(alpha, beta_bytes_per_s)`` from measurements.

    Fits ``t = alpha + s * (1/beta)`` by linear regression on (size, time)
    pairs.  Returns ``alpha`` clamped at 0 (a tiny negative intercept is
    measurement noise, not causality violation).
    """
    s = np.asarray(sizes, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 1 or s.size < 2:
        raise ValueError("need >= 2 paired (size, time) measurements")
    if np.any(s < 0) or np.any(t < 0):
        raise ValueError("sizes and times must be >= 0")
    if np.allclose(s, s[0]):
        raise ValueError("sizes must span more than one value to fit bandwidth")
    design = np.stack([np.ones_like(s), s], axis=1)
    (alpha, inv_beta), *_ = np.linalg.lstsq(design, t, rcond=None)
    if inv_beta <= 0:
        raise ValueError("measurements imply non-positive bandwidth")
    return max(0.0, float(alpha)), float(1.0 / inv_beta)
