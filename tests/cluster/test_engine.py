"""The cluster runner: identity pin, hierarchy, fabric."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster import (
    ClusterSpec,
    gpu_cluster,
    homogeneous_cluster,
    run_cluster,
)
from repro.dist import Block
from repro.engine import make_backend
from repro.errors import OffloadError
from repro.kernels import make_kernel
from repro.machine.interconnect import ETHERNET_10GBE, INFINIBAND_EDR
from repro.machine.presets import full_node, gpu4_node
from repro.obs.span import MARK_CHUNK
from repro.obs.tracer import Tracer
from repro.sched import make_scheduler
from repro.util.ranges import IterRange, split_block


def run(cluster, kernel, policy="BLOCK", **kw):
    """``kernel`` under ``policy`` across ``cluster``."""
    return run_cluster(cluster, kernel, make_scheduler(policy), **kw)


def one_node(machine):
    return ClusterSpec(name=machine.name, nodes=(machine,))


class TestRegistry:
    def test_alias(self):
        """A cluster is not an engine, under either name it had."""
        for name in ("cluster", "multinode"):
            with pytest.raises(OffloadError, match="unknown engine"):
                make_backend(name, gpu4_node())

    def test_bad_placement_rejected(self):
        with pytest.raises(OffloadError, match="placement"):
            run(gpu_cluster(2, 2), make_kernel("axpy", 100), placement="scattered")


class TestSingleNodeBitIdentity:
    """The pin: an intra-node-only cluster run is byte-identical to the
    engine on the same machine."""

    @pytest.mark.parametrize("policy", ["BLOCK", "SCHED_DYNAMIC", "MODEL_1_AUTO"])
    @pytest.mark.parametrize("machine", [gpu4_node, full_node])
    def test_pickle_identical(self, policy, machine):
        m = machine()
        rv = make_backend("virtual", m).run(
            make_kernel("axpy", 60_000), make_scheduler(policy)
        )
        rc = run(one_node(m), make_kernel("axpy", 60_000), policy)
        assert pickle.dumps(rv) == pickle.dumps(rc)

    def test_single_node_cluster_spec_also_identical(self):
        node = gpu4_node()
        rv = make_backend("virtual", node).run(
            make_kernel("matvec", 256), make_scheduler("SCHED_GUIDED")
        )
        rc = run(one_node(node), make_kernel("matvec", 256), "SCHED_GUIDED")
        assert pickle.dumps(rv) == pickle.dumps(rc)


class TestNodeShards:
    @given(
        region=st.builds(
            lambda start, length: IterRange(start, start + length),
            st.integers(0, 1000),
            st.integers(0, 5000),
        ),
        device_counts=st.lists(st.integers(1, 8), min_size=1, max_size=6),
        policy=st.just(Block()),
    )
    def test_property_two_level_exact_cover(self, region, device_counts, policy):
        """Node shards, each split by a Table I policy (what the cluster
        runner composes), cover the region exactly once."""
        shards = split_block(region, len(device_counts))
        covered = sorted(
            i
            for shard, ndev in zip(shards, device_counts)
            for ranges in policy.split(shard, ndev)
            for r in ranges
            for i in range(r.start, r.stop)
        )
        assert covered == list(range(region.start, region.stop))


class TestMultiNode:
    def test_numerics_match_reference(self):
        c = gpu_cluster(4, 2)
        kernel = make_kernel("axpy", 100_000)
        run(c, kernel, "SCHED_DYNAMIC")
        ref = kernel.reference()
        for name, want in ref.items():
            np.testing.assert_allclose(kernel.arrays[name], want)

    def test_reduction_combines_across_nodes(self):
        c = gpu_cluster(3, 2)
        kernel = make_kernel("sum", 90_001)
        res = run(c, kernel)
        assert res.reduction == pytest.approx(kernel.reference(), rel=1e-9)

    def test_traces_cover_every_device_with_global_ids(self):
        c = gpu_cluster(4, 2)
        res = run(c, make_kernel("axpy", 80_000))
        assert [t.devid for t in res.traces] == list(range(8))
        assert all(t.participated for t in res.traces)

    def test_chunk_log_uses_global_device_ids(self):
        """Every chunk mark carries a cluster-global device id, and the
        marks of all nodes together cover the loop exactly once."""
        tracer = Tracer()
        run(gpu_cluster(2, 2), make_kernel("axpy", 40_000), tracer=tracer)
        marks = [s for s in tracer.spans if s.name == MARK_CHUNK]
        by_node = {}
        for s in marks:
            by_node.setdefault(dict(s.args)["node"], set()).add(s.devid)
        assert by_node == {0: {0, 1}, 1: {2, 3}}
        covered = sorted(
            i for s in marks for i in range(*dict(s.args)["chunk"])
        )
        assert covered == list(range(40_000))

    def test_shards_recorded_in_meta_cover_space(self):
        c = gpu_cluster(5, 2)
        res = run(c, make_kernel("axpy", 99_999))
        shards = res.meta["cluster"]["shards"]
        assert shards[0][0] == 0 and shards[-1][1] == 99_999
        assert sum(e - s for s, e in shards) == 99_999

    def test_staging_delays_non_head_nodes(self):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        res = run(c, make_kernel("axpy", 100_000))
        cl = res.meta["cluster"]
        assert cl["stage_in_s"][0] == 0.0  # head holds the host image
        assert cl["stage_in_s"][1] > 0.0
        assert cl["fabric_bytes_in"][1] > 0.0

    def test_head_placement_pays_collection(self):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        res = run(c, make_kernel("axpy", 100_000), placement="head")
        cl = res.meta["cluster"]
        assert cl["fabric_bytes_out"][1] > 0.0
        assert cl["collect_s"][1] > 0.0

    def test_aligned_placement_elides_staging(self):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        head = run(c, make_kernel("axpy", 100_000), placement="head")
        aligned = run(c, make_kernel("axpy", 100_000), placement="aligned")
        h, a = head.meta["cluster"], aligned.meta["cluster"]
        # axpy has no halo: aligned staging is fully elided, and outputs
        # stay node-resident.
        assert a["fabric_bytes_in"][1] == 0.0
        assert a["fabric_bytes_out"][1] == 0.0
        assert h["fabric_bytes_in"][1] > 0.0
        # The scatter is the one-time cost aligned pays instead.
        assert a["placement_scatter_bytes"][1] > 0.0
        assert aligned.total_time_s < head.total_time_s

    def test_aligned_stencil_pays_only_halo(self):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        n = 512
        res = run(c, make_kernel("stencil", n), placement="aligned")
        cl = res.meta["cluster"]
        k = make_kernel("stencil", n)
        row_b = k.row_nbytes("u_in")
        halo_rows = cl["fabric_bytes_in"][1] / row_b
        # The radius-3 stencil's cross-node halo is RADIUS rows per
        # boundary; far less than restaging the whole shard (n/2 rows).
        assert 0 < halo_rows <= 8
        assert cl["fabric_bytes_in"][1] < row_b * n / 4

    def test_shared_fabric_serialises_staging(self):
        """Staging serialises on the head uplink: each non-head node's
        inputs start crossing only once the previous node's have."""
        tracer = Tracer()
        c = gpu_cluster(3, 2, fabric=ETHERNET_10GBE)
        res = run(c, make_kernel("axpy", 120_000), tracer=tracer)
        stage = res.meta["cluster"]["stage_in_s"]
        fabric_in = {
            dict(s.args)["node"]: s
            for s in tracer.spans if s.name == "fabric_in"
        }
        assert sorted(fabric_in) == [1, 2]
        assert fabric_in[1].t0 == 0.0
        assert fabric_in[2].t0 == fabric_in[1].t1
        assert fabric_in[2].t1 == pytest.approx(stage[1] + stage[2])
        # No device of node 2 starts before its inputs have all arrived.
        assert min(
            s.t0 for s in tracer.spans
            if s.devid in (4, 5) and s.name != "fabric_in"
        ) >= fabric_in[2].t1

    def test_node_spans_carry_node_ids(self):
        tracer = Tracer()
        c = gpu_cluster(2, 2, fabric=INFINIBAND_EDR)
        run(c, make_kernel("axpy", 60_000), tracer=tracer)
        nodes = {
            v for s in tracer.spans for k, v in s.args if k == "node"
        }
        assert nodes == {0, 1}
        fabric_in = [s for s in tracer.spans if s.name == "fabric_in"]
        assert fabric_in and dict(fabric_in[0].args)["node"] == 1
        # Device ids in spans are cluster-global.
        devids = {s.devid for s in tracer.spans if s.devid >= 0}
        assert devids >= {0, 1, 2, 3}

    def test_total_dominates_slowest_node(self):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        res = run(c, make_kernel("axpy", 100_000))
        cl = res.meta["cluster"]
        assert res.total_time_s == pytest.approx(max(cl["node_finish_s"]))
        assert res.total_time_s >= max(
            r + t for r, t in zip(cl["stage_in_s"], cl["node_compute_s"])
        )


class TestReplicatedInputs:
    """matvec maps ``A`` and ``y`` by rows but ``x`` FULL: every node
    needs all of ``x`` whatever the placement."""

    # Node 1's 256 rows of A (256 x 512 doubles), all of x (512) and its
    # rows of y (256): (131072 + 512 + 256) * 8 bytes.
    NODE1_BYTES = 1_054_720.0

    def meta(self, placement):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        kernel = make_kernel("matvec", 512)
        res = run(c, kernel, placement=placement)
        for name, want in kernel.reference().items():
            np.testing.assert_array_equal(kernel.arrays[name], want)
        return res.meta["cluster"]

    def test_head_placement_stages_full_inputs(self):
        cl = self.meta("head")
        assert cl["fabric_bytes_in"] == [0.0, self.NODE1_BYTES]
        assert cl["fabric_bytes_out"] == [0.0, 2_048.0]  # node 1's rows of y
        assert cl["placement_scatter_bytes"] == [0.0, 0.0]

    def test_aligned_placement_scatters_replicas_once(self):
        cl = self.meta("aligned")
        assert cl["placement_scatter_bytes"] == [0.0, self.NODE1_BYTES]
        assert cl["fabric_bytes_in"] == [0.0, 0.0]
        assert cl["fabric_bytes_out"] == [0.0, 0.0]


class TestNodeSchedulers:
    """Each node plans on its own copy of the scheduler."""

    def test_identical_nodes_time_identical_shards(self):
        """Three equal shards on three equal nodes take equal time, also
        under an adaptive policy; the cutoff shows in the algorithm."""
        c = homogeneous_cluster(3, full_node())
        res = run(c, make_kernel("axpy", 300_000), "STREAM_REBALANCE")
        compute = res.meta["cluster"]["node_compute_s"]
        assert compute[0] > 0.0
        assert compute == [compute[0]] * 3

        tracer = Tracer()
        res = run(
            c, make_kernel("axpy", 300_000), "MODEL_1_AUTO",
            cutoff_ratio=0.15, tracer=tracer,
        )
        assert res.algorithm.endswith(",15%")
        (span,) = [s for s in tracer.spans if s.name == "cluster_offload"]
        assert dict(span.args)["algorithm"] == res.algorithm


class TestMultiNodeGuards:
    def test_align_scheduler_rejected(self):
        kernel = make_kernel("axpy", 10_000)
        kernel.set_partition("x", Block())
        with pytest.raises(OffloadError, match="ALIGN"):
            run_cluster(
                gpu_cluster(2, 2), kernel, make_scheduler("ALIGN", target="x")
            )
