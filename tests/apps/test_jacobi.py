"""Distributed Jacobi (paper Fig. 3) end to end."""

import numpy as np
import pytest

from repro.apps.jacobi import JacobiCopyKernel, JacobiSolver, JacobiSweepKernel
from repro.machine.presets import cpu_mic_node, full_node, gpu4_node
from repro.runtime.runtime import HompRuntime


class TestKernels:
    def test_copy_kernel_matches_reference(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((16, 12))
        uold = np.zeros_like(u)
        k = JacobiCopyKernel(u, uold)
        from repro.util.ranges import IterRange

        k.execute_chunk(IterRange(0, 8))
        k.execute_chunk(IterRange(8, 16))
        assert np.array_equal(uold, u)

    def test_copy_kernel_shape_validation(self):
        with pytest.raises(ValueError):
            JacobiCopyKernel(np.zeros((4, 4)), np.zeros((5, 4)))

    def test_sweep_kernel_matches_reference(self):
        rng = np.random.default_rng(1)
        n = 20
        u = rng.standard_normal((n, n))
        uold = u.copy()
        f = rng.standard_normal((n, n))
        k = JacobiSweepKernel(u, uold, f, ax=1.0, ay=1.0, b=-5.0, omega=0.8)
        from repro.util.ranges import IterRange

        err = 0.0
        for chunk in (IterRange(0, 7), IterRange(7, 13), IterRange(13, 20)):
            err += k.execute_chunk(chunk)
        ref = k.reference()
        assert np.allclose(u, ref["u"])
        assert err == pytest.approx(ref["__reduction__"])

    def test_sweep_is_reduction(self):
        n = 8
        z = np.zeros((n, n))
        k = JacobiSweepKernel(z.copy(), z.copy(), z.copy(), ax=1, ay=1, b=-5, omega=0.8)
        assert k.is_reduction


class TestSolver:
    @pytest.mark.parametrize("machine", [gpu4_node(), cpu_mic_node(), full_node()],
                             ids=["gpu4", "cpu+mic", "full"])
    def test_distributed_solve_matches_serial(self, machine):
        rt = HompRuntime(machine)
        solver = JacobiSolver(40, seed=9)
        result = solver.solve(rt, max_iters=8, tol=0.0)
        u_ref, iters, err = JacobiSolver(40, seed=9).reference(max_iters=8, tol=0.0)
        assert result.iterations == iters == 8
        assert np.allclose(result.u, u_ref)
        assert result.final_error == pytest.approx(err)

    def test_error_decreases_monotonically(self):
        rt = HompRuntime(gpu4_node())
        solver = JacobiSolver(32, seed=2)
        result = solver.solve(rt, max_iters=12, tol=0.0)
        errs = [r2.reduction for _, r2 in result.per_loop_results]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_convergence_stops_at_tolerance(self):
        rt = HompRuntime(gpu4_node())
        solver = JacobiSolver(24, seed=3)
        loose = solver.solve(rt, max_iters=100, tol=1e-2)
        assert loose.iterations < 100
        assert loose.final_error <= 1e-2

    def test_halo_time_accumulates(self):
        rt = HompRuntime(gpu4_node())
        result = JacobiSolver(32, seed=4).solve(rt, max_iters=5, tol=0.0)
        assert result.halo_time_s > 0.0
        assert result.sim_time_s > result.halo_time_s

    def test_rectangular_grid(self):
        rt = HompRuntime(gpu4_node())
        solver = JacobiSolver(30, 18, seed=5)
        result = solver.solve(rt, max_iters=4, tol=0.0)
        u_ref, _, _ = JacobiSolver(30, 18, seed=5).reference(max_iters=4, tol=0.0)
        assert np.allclose(result.u, u_ref)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            JacobiSolver(2)
