"""Lowering directives + kernels into offload programs."""

import numpy as np
import pytest

from repro.dist.policy import Align, Auto, Block, Full
from repro.errors import DeviceError, IRVerifyError, MappingError, SchedulingError
from repro.ir.lower import data_region, decl_for, from_directive, from_directives
from repro.ir.ops import ReduceOp
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.memory.space import MapDirection
from repro.runtime.runtime import HompRuntime


def test_decl_for_captures_geometry():
    arr = np.zeros((10, 4))
    d = decl_for("A", arr)
    assert (d.name, d.shape, d.dtype, d.nbytes) == ("A", (10, 4), "float64", 320)


def test_from_directive_basic_offload():
    kernel = make_kernel("axpy", 1000, seed=0)
    program = from_directive("omp parallel target device(*)", kernel)
    assert len(program.ops) == 1
    op = program.ops[0]
    assert op.kernel is kernel
    assert op.n_iters == 1000
    assert op.schedule == "AUTO"
    assert op.devices == "(*)"
    assert not op.serialize_offload
    assert set(op.map_names) == set(kernel.arrays)
    assert {d.name for d in program.decls} == set(kernel.arrays)
    assert program.source == ("omp parallel target device(*)",)


def test_from_directive_schedule_from_dist_schedule():
    kernel = make_kernel("axpy", 100, seed=0)
    program = from_directive(
        "omp parallel for target distribute dist_schedule(target:[BLOCK])",
        kernel,
    )
    assert program.ops[0].schedule == Block()
    assert program.ops[0].devices is None


def test_teams_modifier_is_not_the_cross_device_schedule():
    # dist_schedule(teams:...) is within-device OpenMP: the cross-device
    # split stays AUTO, exactly as without the clause.
    kernel = make_kernel("axpy", 100, seed=0)
    for lowered in (
        from_directive("omp parallel target dist_schedule(teams:[BLOCK])", kernel),
        from_directives(
            [("omp parallel target dist_schedule(teams:[BLOCK])", kernel)]
        ),
    ):
        assert lowered.ops[0].schedule == "AUTO"


def test_from_directive_explicit_schedule_wins():
    kernel = make_kernel("axpy", 100, seed=0)
    program = from_directive(
        "omp parallel target distribute dist_schedule(target:[BLOCK])",
        kernel,
        schedule="SCHED_DYNAMIC",
    )
    assert program.ops[0].schedule == "SCHED_DYNAMIC"


def test_from_directive_partition_overrides_applied_to_maps():
    kernel = make_kernel("axpy", 100, seed=0)
    program = from_directive(
        "omp parallel target map(tofrom: y[0:n] partition([ALIGN(loop)]))",
        kernel,
    )
    op = program.ops[0]
    assert op.partition_overrides == (("y", Align("loop")),)
    by_name = {m.array: m for m in op.maps}
    assert by_name["y"].policies[0] == Align("loop")
    # The kernel itself is untouched at lower time: the override is
    # recorded on the op and applied by the runtime at execution.
    assert kernel.effective_maps() == kernel.maps()


MATVEC_V2 = (
    "#pragma omp parallel target device(*) map(to: {name}[0:n][0:n] "
    "partition([BLOCK],[{dim1}])) distribute dist_schedule(target:[BLOCK])"
)


def test_sectioned_map_of_an_unknown_array_is_refused():
    """matvec calls its matrix ``A``: a map of ``a`` used to be dropped and
    the offload ran with the kernel's default maps."""
    kernel = make_kernel("matvec", 512, seed=0)
    directive = MATVEC_V2.format(name="a", dim1="FULL")
    with pytest.raises(MappingError, match="'a'"):
        from_directive(directive, kernel)
    with pytest.raises(MappingError, match="'a'"):
        HompRuntime(gpu4_node()).offload(directive, kernel)


def test_unsectioned_scalars_still_pass():
    kernel = make_kernel("axpy", 100, seed=0)
    program = from_directive(
        "omp parallel target map(to: x[0:n] partition([BLOCK]), a, n)", kernel
    )
    assert program.ops[0].partition_overrides == (("x", Block()),)


@pytest.mark.parametrize("dim1", ["BLOCK", "CYCLIC"])
def test_dim1_policy_other_than_the_kernels_is_refused(dim1):
    """Only dim 0 of a directive's partition is placed: ``[BLOCK],[X]``
    used to run identically for every X."""
    kernel = make_kernel("matvec", 512, seed=0)
    directive = MATVEC_V2.format(name="A", dim1=dim1)
    with pytest.raises(MappingError, match="'A' sets dim 1"):
        from_directive(directive, kernel)
    with pytest.raises(MappingError, match="'A' sets dim 1"):
        HompRuntime(gpu4_node()).offload(directive, kernel)


def test_dim1_policy_equal_to_the_kernels_runs():
    kernel = make_kernel("matvec", 512, seed=0)
    result = HompRuntime(gpu4_node()).offload(
        MATVEC_V2.format(name="A", dim1="FULL"), kernel
    )
    assert np.allclose(kernel.arrays["y"], kernel.reference()["y"])
    assert result.devices_used == 4


def test_policy_on_a_dim_the_array_lacks_is_refused():
    kernel = make_kernel("axpy", 100, seed=0)
    with pytest.raises(MappingError, match="'x' sets dim 1"):
        from_directive(
            "omp parallel target map(to: x[0:n][0:n] partition([BLOCK],[FULL]))",
            kernel,
        )


def test_from_directive_without_parallel_target_serialises():
    kernel = make_kernel("axpy", 100, seed=0)
    program = from_directive("omp target device(0)", kernel)
    assert program.ops[0].serialize_offload
    assert program.ops[0].devices == "(0)"


def test_from_directive_reduction_kernel_gets_reduce_op():
    kernel = make_kernel("sum", 100, seed=0)
    program = from_directive(
        "omp parallel for target reduction(+:error)", kernel
    )
    assert program.ops[0].reduce == ReduceOp(op="+", var="error")
    non_red = from_directive(
        "omp parallel target device(*)", make_kernel("axpy", 100, seed=0)
    )
    assert non_red.ops[0].reduce is None


def test_from_directive_collapse_clause():
    kernel = make_kernel("axpy", 100, seed=0)
    program = from_directive("omp parallel for target collapse(2)", kernel)
    assert program.ops[0].collapse == 2


def test_from_directives_merges_shared_decls():
    from repro.apps.blas_chain import two_kernel_chain

    pairs, _ = two_kernel_chain(64)
    program = from_directives(pairs)
    assert len(program.ops) == 2
    assert {d.name for d in program.decls} == {"A", "x", "y"}
    assert len(program.decls) == 3  # shared x/y declared once


def test_from_directives_conflicting_geometry_rejected():
    k1 = make_kernel("axpy", 100, seed=0)
    k2 = make_kernel("axpy", 200, seed=0)
    with pytest.raises(IRVerifyError, match="conflicting geometry"):
        from_directives(
            [
                ("omp parallel target", k1),
                ("omp parallel target", k2),
            ]
        )


# -- data regions ------------------------------------------------------------

FIG3_DATA = """#pragma omp parallel target data device(*) \\
  map(to:n, m, f[0:n][0:m] partition([ALIGN(loop1)], FULL)) \\
  map(tofrom:u[0:n][0:m] partition([ALIGN(loop1)], FULL)) \\
  map(alloc:uold[0:n][0:m] partition([ALIGN(loop1)], FULL) halo(1,))"""


def fig3_arrays(n=16, m=8):
    return {
        "f": np.zeros((n, m)),
        "u": np.zeros((n, m)),
        "uold": np.zeros((n, m)),
    }


def test_data_region_lowering():
    program = data_region(FIG3_DATA, fig3_arrays())
    assert program.ops == ()
    assert program.region_devices == "(*)"
    by_name = {m.array: m for m in program.region_maps}
    assert set(by_name) == {"f", "u", "uold"}  # scalars skipped
    assert by_name["uold"].direction is MapDirection.ALLOC
    assert by_name["uold"].halo == (1, 1)
    assert by_name["u"].policies == (Align("loop1"), Full())


def test_data_region_rejects_non_data_directive():
    with pytest.raises(SchedulingError):
        data_region("omp parallel target device(*)", {})


def test_data_region_rejects_unknown_array():
    with pytest.raises(DeviceError):
        data_region(
            "omp parallel target data map(to: ghost[0:n] partition([BLOCK]))",
            {},
        )
