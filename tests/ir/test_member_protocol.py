"""The op-member protocol: ``op.offloads`` / ``op.with_offloads``.

One program holding every op kind — a plain offload, a fused pair and a
stream — is traversed the same way by ``Program.offloads``, the listing,
the passes and the verifier.
"""

from dataclasses import replace

import pytest

from repro.apps.blas_chain import two_kernel_chain
from repro.errors import IRVerifyError
from repro.ir.lower import from_directives
from repro.ir.ops import FusedOffloadOp, OffloadOp, StreamOp
from repro.ir.passes import DEFAULT_PIPELINE, PASSES, run_passes
from repro.ir.verify import verify_program
from repro.kernels.registry import make_kernel

TARGET = "omp parallel target device(*)"


def mixed_program():
    """plain stencil | fused (matvec, axpy) | streamed stencil — normalized."""
    pairs, _ = two_kernel_chain(64, seed=1)
    stencil = make_kernel("stencil", 32)
    program = from_directives(
        [
            ("omp parallel target device(0:2)", stencil),
            *pairs,
            (TARGET + " stream(batches=3, window=4)", stencil),
        ]
    )
    return run_passes(program)


@pytest.fixture(scope="module")
def program():
    return mixed_program()


def test_program_holds_every_op_kind(program):
    assert [type(op) for op in program.ops] == [
        OffloadOp, FusedOffloadOp, StreamOp,
    ]


def test_members_concatenate_to_program_offloads(program):
    plain, fused, stream = program.ops
    assert plain.offloads == (plain,)
    assert fused.offloads == fused.members
    assert stream.offloads == (stream.template,)
    assert program.offloads == plain.offloads + fused.offloads + stream.offloads
    assert all(isinstance(m, OffloadOp) for m in program.offloads)


@pytest.mark.parametrize("index", [0, 1, 2], ids=["plain", "fused", "stream"])
def test_rebuild_with_same_members_is_the_same_object(program, index):
    op = program.ops[index]
    assert op.with_offloads(op.offloads) is op
    assert op.with_offloads(list(op.offloads)) is op


@pytest.mark.parametrize("index", [0, 1, 2], ids=["plain", "fused", "stream"])
def test_rebuild_around_rewritten_members(program, index):
    op = program.ops[index]
    relabelled = tuple(replace(m, label="renamed") for m in op.offloads)
    rebuilt = op.with_offloads(relabelled)
    assert type(rebuilt) is type(op)
    assert rebuilt.offloads == relabelled
    assert rebuilt is not op
    # Everything that is not a member survives the rebuild.
    assert getattr(rebuilt, "region_maps", ()) == getattr(op, "region_maps", ())
    assert getattr(rebuilt, "batches", None) == getattr(op, "batches", None)


@pytest.mark.parametrize("name", DEFAULT_PIPELINE)
def test_each_pass_is_identity_on_a_normalized_program(program, name):
    assert PASSES[name](program) is program


def test_pipeline_is_identity_on_a_normalized_program(program):
    assert run_passes(program) is program
    assert verify_program(program) is program


def test_passes_reach_members_of_every_op_kind():
    # derive-halo through the protocol: the stencil's halo map gets its
    # HaloOp whether the offload is plain, fused or a stream template.
    k = make_kernel("stencil", 32)
    raw = from_directives(
        [
            ("omp parallel target device(0:2)", k),
            (TARGET, k),
            (TARGET, k),
            (TARGET + " stream(batches=2)", k),
        ]
    )
    out = run_passes(raw)
    assert [type(op) for op in out.ops] == [OffloadOp, FusedOffloadOp, StreamOp]
    assert all(
        [h.array for h in m.halos] == ["u_in"] for m in out.offloads
    )


@pytest.mark.parametrize("index", [1, 2], ids=["fused", "stream"])
def test_region_maps_must_cover_members_for_every_op_kind(program, index):
    op = program.ops[index]
    partial = op.region_maps[1:]
    ops = list(program.ops)
    ops[index] = replace(op, region_maps=partial)
    with pytest.raises(IRVerifyError, match="maps miss (member|template) arrays"):
        verify_program(replace(program, ops=tuple(ops)))


def test_member_rules_apply_to_every_op_kind(program):
    for index, op in enumerate(program.ops):
        broken = tuple(replace(m, n_iters=0) for m in op.offloads)
        ops = list(program.ops)
        ops[index] = op.with_offloads(broken)
        with pytest.raises(IRVerifyError, match="empty iteration space"):
            verify_program(replace(program, ops=tuple(ops)))


#: ``examples/ir_fusion.py``'s two listings, byte for byte as the parent
#: commit printed them (N = 4000).
LOWERED = """\
program (3 decls, 2 ops)
  decl A: [4000, 4000] float64
  decl x: [4000] float64
  decl y: [4000] float64
  offload chain-matvec: loop[0:4000) schedule=AUTO maps={A, x, y}
  offload chain-axpy: loop[0:4000) schedule=AUTO maps={x, y}"""

FUSED = """\
program (3 decls, 1 ops)
  decl A: [4000, 4000] float64
  decl x: [4000] float64
  decl y: [4000] float64
  fused group over {A, x, y}
    offload chain-matvec: loop[0:4000) schedule=AUTO maps={A, x, y}
    offload chain-axpy: loop[0:4000) schedule=AUTO maps={x, y}"""


def test_describe_matches_the_ir_fusion_example_listings():
    pairs, _ = two_kernel_chain(4_000, alpha=0.5, seed=3)
    program = from_directives(pairs)
    assert program.describe() == LOWERED
    assert run_passes(program).describe() == FUSED


def test_describe_lists_a_stream_and_its_halos(program):
    lines = program.describe().splitlines()
    assert lines[-2] == "  stream batches=3 window=4 region={u_in, u_out}"
    assert lines[-1] == (
        "    offload stencil: loop[0:32) schedule=AUTO "
        "maps={u_in, u_out} halo(3,3):u_in"
    )
