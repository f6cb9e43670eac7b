"""Power iteration: a multi-offload chain over a persistent data region."""

import numpy as np
import pytest

from repro.machine.presets import gpu4_node
from repro.runtime.runtime import HompRuntime


class TestPowerIteration:
    def test_matches_numpy_power_iteration(self):
        from repro.apps import PowerIteration

        rt = HompRuntime(gpu4_node())
        solver = PowerIteration(96, seed=4)
        result = solver.run(rt, iters=12)
        eig_ref, x_ref = PowerIteration(96, seed=4).reference(iters=12)
        assert result.eigenvalue == pytest.approx(eig_ref)
        assert np.allclose(result.x, x_ref)

    def test_region_amortises_matrix_transfer(self):
        from repro.apps import PowerIteration

        rt = HompRuntime(gpu4_node())
        naive = PowerIteration(256, seed=5).run(rt, iters=6, use_data_region=False)
        region = PowerIteration(256, seed=5).run(rt, iters=6, use_data_region=True)
        assert region.sim_time_s < naive.sim_time_s
        assert naive.eigenvalue == pytest.approx(region.eigenvalue)

    def test_converges_to_dominant_eigenvalue(self):
        from repro.apps import PowerIteration

        rt = HompRuntime(gpu4_node())
        solver = PowerIteration(48, seed=6)
        result = solver.run(rt, iters=120)
        true_eigs = np.linalg.eigvalsh(solver.a)
        dominant = max(abs(true_eigs[0]), abs(true_eigs[-1]))
        assert result.eigenvalue == pytest.approx(dominant, rel=1e-3)

    def test_too_small_rejected(self):
        from repro.apps import PowerIteration

        with pytest.raises(ValueError):
            PowerIteration(1)
