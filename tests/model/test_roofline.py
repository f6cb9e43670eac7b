"""The intensity classification heuristic."""

import pytest

from repro.model.roofline import IntensityClass, classify_intensity


class TestClassification:
    """Table IV kernels must land in the classes the evaluation groups
    them into (axpy/sum data-intensive; matvec balanced; mm/stencil/bm
    compute-intensive)."""

    def test_axpy(self):
        assert classify_intensity(1.5, 1.5) is IntensityClass.DATA_INTENSIVE

    def test_sum(self):
        assert classify_intensity(1.0, 1.0) is IntensityClass.DATA_INTENSIVE

    def test_matvec(self):
        assert classify_intensity(1.0, 0.5) is IntensityClass.BALANCED

    def test_matmul(self):
        assert classify_intensity(1.5 / 6144, 1.5 / 6144) is IntensityClass.COMPUTE_INTENSIVE

    def test_stencil(self):
        assert classify_intensity(0.54, 1 / 13) is IntensityClass.COMPUTE_INTENSIVE

    def test_block_matching(self):
        assert classify_intensity(0.5, 0.06) is IntensityClass.COMPUTE_INTENSIVE

    def test_bus_light_memory_heavy_kernel_is_balanced(self):
        # stresses device memory but not the bus: not compute-intensive
        assert classify_intensity(2.0, 0.01) is IntensityClass.BALANCED

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_intensity(-0.1, 0.5)
