"""Kernels on private writable inputs, the way a user's own kernel (or the
Jacobi and ``blas_chain`` apps) passes them; the six built-in kernels
share read-only pooled bases instead."""

from repro.kernels.base import LoopKernel


def private_inputs(kernel: LoopKernel) -> LoopKernel:
    """``kernel``, rebuilt in place on private writable copies of its arrays."""
    copies = {name: a.copy() for name, a in kernel.arrays.items()}
    LoopKernel.__init__(kernel, kernel.n_iters, copies)
    return kernel
