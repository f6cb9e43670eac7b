"""StreamOp lowering, the stream-pipeline pass, and stream verification."""

import pickle
from dataclasses import replace

import pytest

from repro.errors import IRVerifyError
from repro.ir.lower import from_directive, from_directives
from repro.ir.ops import StreamOp
from repro.ir.passes import DEFAULT_PIPELINE, run_passes, stream_pipeline
from repro.ir.verify import verify_program
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.runtime import HompRuntime, StreamResult

STREAMED = (
    "#pragma omp parallel for target device(*) "
    "map(tofrom: y[0:n] partition([BLOCK])) "
    "map(to: x[0:n] partition([BLOCK]), a, n) "
    "stream(batches=100, window=16)"
)


def streamed_program():
    return from_directive(STREAMED, make_kernel("axpy", 256))


class TestLowering:
    def test_directive_lowers_to_stream_op(self):
        prog = streamed_program()
        (op,) = prog.ops
        assert isinstance(op, StreamOp)
        assert op.batches == 100
        assert op.window == 16
        assert op.region_maps == ()  # filled by the pass, not the lowerer

    def test_template_is_the_plain_offload(self):
        prog = streamed_program()
        plain = from_directive(
            STREAMED.replace(" stream(batches=100, window=16)", ""),
            make_kernel("axpy", 256),
        )
        (op,) = prog.ops
        (plain_op,) = plain.ops
        assert op.template.map_names == plain_op.map_names
        assert op.template.schedule == plain_op.schedule

    def test_program_offloads_reaches_through_streams(self):
        prog = streamed_program()
        (op,) = prog.ops
        assert prog.offloads == (op.template,)


    def test_from_directives_honours_the_stream_clause(self):
        # One lowering body: the sequence entry point used to drop the
        # clause and run the loop once.
        text = STREAMED.replace("batches=100, window=16", "batches=3, window=4")
        single = from_directive(text, make_kernel("axpy", 256))
        listed = from_directives([(text, make_kernel("axpy", 256))])
        assert isinstance(listed.ops[0], StreamOp)
        assert listed.describe() == single.describe()
        assert run_passes(listed).describe() == run_passes(single).describe()
        (by_list,) = HompRuntime(gpu4_node()).run_program(listed)
        (by_single,) = HompRuntime(gpu4_node()).run_program(single)
        assert isinstance(by_list, StreamResult) and len(by_list.results) == 3
        assert pickle.dumps(by_list) == pickle.dumps(by_single)

    def test_fusion_leaves_stream_ops_ungrouped(self):
        k = make_kernel("axpy", 256)
        plain = STREAMED.replace(" stream(batches=100, window=16)", "")
        prog = run_passes(
            from_directives([(plain, k), (STREAMED, k), (plain, k), (plain, k)])
        )
        assert [type(op).__name__ for op in prog.ops] == [
            "OffloadOp", "StreamOp", "FusedOffloadOp",
        ]


class TestStreamPipelinePass:
    def test_pass_hoists_template_maps_into_region(self):
        prog = stream_pipeline(streamed_program())
        (op,) = prog.ops
        assert {m.array for m in op.region_maps} == set(op.template.map_names)

    def test_pass_is_idempotent(self):
        once = stream_pipeline(streamed_program())
        assert stream_pipeline(once) is once

    def test_pass_in_default_pipeline(self):
        assert "stream-pipeline" in DEFAULT_PIPELINE
        prog = run_passes(streamed_program())
        (op,) = prog.ops
        assert op.region_maps  # the default pipeline filled the region

    def test_non_stream_programs_pass_through(self):
        plain = from_directive(
            STREAMED.replace(" stream(batches=100, window=16)", ""),
            make_kernel("axpy", 256),
        )
        assert stream_pipeline(plain) is plain


class TestVerify:
    def test_lowered_and_piped_program_verifies(self):
        verify_program(run_passes(streamed_program()))

    def test_bad_batches_rejected(self):
        prog = streamed_program()
        (op,) = prog.ops
        bad = replace(prog, ops=(replace(op, batches=0),))
        with pytest.raises(IRVerifyError, match="batches"):
            verify_program(bad)

    def test_bad_window_rejected(self):
        prog = streamed_program()
        (op,) = prog.ops
        bad = replace(prog, ops=(replace(op, window=-1),))
        with pytest.raises(IRVerifyError, match="window"):
            verify_program(bad)

    def test_region_missing_template_array_rejected(self):
        prog = run_passes(streamed_program())
        (op,) = prog.ops
        partial = tuple(m for m in op.region_maps if m.array != "y")
        bad = replace(prog, ops=(replace(op, region_maps=partial),))
        with pytest.raises(IRVerifyError, match="miss template arrays"):
            verify_program(bad)
