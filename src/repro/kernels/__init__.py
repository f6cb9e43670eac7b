"""The paper's six evaluation kernels (Table IV) plus the Fig. 3 Jacobi.

Each kernel pairs a real NumPy computation (run over exactly the chunks the
scheduler assigns, so distribution bugs corrupt outputs) with the analytic
FLOP/byte model that drives simulated cost and reproduces Table IV's
MemComp/DataComp ratios.
"""

from repro.kernels.base import LoopKernel, MapSpec, ChunkCost
from repro.kernels.axpy import AxpyKernel
from repro.kernels.sumreduce import SumKernel
from repro.kernels.matvec import MatVecKernel
from repro.kernels.matmul import MatMulKernel
from repro.kernels.stencil import Stencil2DKernel
from repro.kernels.block_matching import BlockMatchingKernel
from repro.kernels.pool import clear_pool, pool_stats, pooled_inputs
from repro.kernels.registry import KERNELS, make_kernel

__all__ = [
    "clear_pool",
    "pool_stats",
    "pooled_inputs",
    "LoopKernel",
    "MapSpec",
    "ChunkCost",
    "AxpyKernel",
    "SumKernel",
    "MatVecKernel",
    "MatMulKernel",
    "Stencil2DKernel",
    "BlockMatchingKernel",
    "KERNELS",
    "make_kernel",
]
