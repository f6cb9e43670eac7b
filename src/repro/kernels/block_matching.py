"""Block matching between two frames (Table IV row "Block Matching").

Motion-estimation style kernel: for each pixel ``(i, j)`` compute the best
(minimum) sum-of-absolute-differences between the ``W x W`` block of
``frame1`` anchored at the pixel and candidate blocks of ``frame2``
displaced by up to ``search`` pixels, storing the best SAD.  Iteration =
one row of anchors.

With the defaults (window ``W = 4``, ``search = 0``: one candidate) the
per-pixel counts reproduce the paper's ratios: 3 ops per compared pixel
(subtract, abs, accumulate) x 16 pixels = 48 ops; idealised memory traffic
of the two blocks with ~2x reuse from overlapping anchors = 24 accesses
(MemComp 0.5); bus traffic one pixel of each frame in + one SAD out = 3
elements (DataComp 0.0625 ~= the table's 0.06).  A non-zero ``search``
turns on a genuine candidate search (compute-intensity grows as
``(2*search+1)^2``), used by the extension tests.
"""

from __future__ import annotations

import numpy as np

from repro.dist.policy import Align, Full
from repro.kernels.base import LoopKernel, MapSpec
from repro.kernels.pool import pooled_inputs
from repro.memory.buffer import DeviceBuffer
from repro.memory.space import MapDirection
from repro.model.roofline import IntensityClass
from repro.util.ranges import IterRange

__all__ = ["BlockMatchingKernel"]


class BlockMatchingKernel(LoopKernel):
    name = "bm"
    label = "loop"
    table_class = IntensityClass.COMPUTE_INTENSIVE
    span_exact = True  # every output row is computed independently

    def __init__(self, n: int, *, window: int = 4, search: int = 0, seed: int = 0):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if search < 0:
            raise ValueError(f"search must be >= 0, got {search}")
        if n < window + 2 * search:
            raise ValueError(f"frame size {n} too small for window/search")
        def _generate() -> dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            frame1 = rng.random((n, n))
            frame2 = frame1 + 0.05 * rng.standard_normal((n, n))
            sad = np.zeros((self.anchors, self.anchors))
            return {"frame1": frame1, "frame2": frame2, "sad": sad}

        # Anchors where every candidate block stays in-frame.
        self.n = n
        self.window = window
        self.search = search
        self.anchors = n - window - 2 * search + 1
        self._ref_key = ("bm", n, seed, window, search)
        arrays = pooled_inputs(self._ref_key, _generate)
        super().__init__(n_iters=self.anchors, arrays=arrays)

    def maps(self) -> tuple[MapSpec, ...]:
        # An anchor row i reads frame1 rows [i, i+W) and frame2 rows
        # [i, i+2*search+W) (candidate row offsets span [0, 2*search]).
        return (
            MapSpec(
                "frame1",
                MapDirection.TO,
                (Align(self.label), Full()),
                halo=(0, self.window - 1),
            ),
            MapSpec(
                "frame2",
                MapDirection.TO,
                (Align(self.label), Full()),
                halo=(0, self.window - 1 + 2 * self.search),
            ),
            MapSpec("sad", MapDirection.FROM, (Align(self.label), Full())),
        )

    @property
    def _candidates(self) -> int:
        return (2 * self.search + 1) ** 2

    def flops_per_iter(self) -> float:
        # 3 ops per compared pixel, per candidate, per anchor; N-ish anchors/row.
        return 3.0 * self.window**2 * self._candidates * self.anchors

    def mem_accesses_per_iter(self) -> float:
        # Two W x W blocks per candidate with ~2x reuse across overlapping
        # anchors (idealised, as in the paper's table).
        return 1.5 * self.window**2 * self._candidates * self.anchors

    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange) -> None:
        f1 = buffers["frame1"]
        f2 = buffers["frame2"]
        out = buffers["sad"].local_view(rows)
        w, s = self.window, self.search
        na = self.anchors
        m = len(rows)
        base1 = rows.start - f1.region[0].start
        base2 = rows.start - f2.region[0].start
        best = np.full((m, na), np.inf)
        for di in range(-s, s + 1):
            for dj in range(-s, s + 1):
                sad = np.zeros((m, na))
                for wi in range(w):
                    for wj in range(w):
                        a = f1.data[base1 + wi : base1 + wi + m, s + wj : s + wj + na]
                        b = f2.data[
                            base2 + s + di + wi : base2 + s + di + wi + m,
                            s + dj + wj : s + dj + wj + na,
                        ]
                        sad += np.abs(a - b)
                np.minimum(best, sad, out=best)
        out[:, :] = best
        return None

    def reference(self) -> dict[str, np.ndarray]:
        f1 = self._initial["frame1"]
        f2 = self._initial["frame2"]
        w, s, na = self.window, self.search, self.anchors
        best = np.full((na, na), np.inf)
        for di in range(-s, s + 1):
            for dj in range(-s, s + 1):
                sad = np.zeros((na, na))
                for wi in range(w):
                    for wj in range(w):
                        a = f1[wi : wi + na, s + wj : s + wj + na]
                        b = f2[s + di + wi : s + di + wi + na, s + dj + wj : s + dj + wj + na]
                        sad += np.abs(a - b)
                np.minimum(best, sad, out=best)
        return {"sad": best}
