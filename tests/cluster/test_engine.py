"""The ``cluster`` execution backend: identity pin, hierarchy, fabric."""

import pickle

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ClusterSpec, gpu_cluster
from repro.engine import make_backend, backend_names
from repro.errors import OffloadError
from repro.faults.plan import FaultPlan, Slowdown
from repro.kernels import make_kernel
from repro.machine.interconnect import ETHERNET_10GBE, INFINIBAND_EDR
from repro.machine.presets import full_node, gpu4_node
from repro.memory.residency import RegionResidency  # noqa: F401  (API exists)
from repro.obs.tracer import Tracer
from repro.sched import make_scheduler


def run_pair(kernel_name, n, policy, engine_a, engine_b, **kw):
    """Run the same (kernel, policy) on two engines with fresh kernels."""
    ka = make_kernel(kernel_name, n)
    kb = make_kernel(kernel_name, n)
    ra = engine_a.run(ka, make_scheduler(policy), **kw)
    rb = engine_b.run(kb, make_scheduler(policy), **kw)
    return ka, ra, kb, rb


class TestRegistry:
    def test_cluster_backend_registered(self):
        assert "cluster" in backend_names()

    def test_alias(self):
        from repro.engine import resolve_backend

        assert resolve_backend("multinode") is ClusterEngine

    def test_make_backend_wraps_machine_as_single_node(self):
        eng = make_backend("cluster", gpu4_node())
        assert isinstance(eng, ClusterEngine)
        assert eng.cluster.n_nodes == 1

    def test_mismatched_cluster_and_machine_rejected(self):
        with pytest.raises(OffloadError, match="flatten"):
            ClusterEngine(machine=gpu4_node(), cluster=gpu_cluster(2, 2))

    def test_cluster_is_matched_by_frozen_spec_not_to_dict(self, monkeypatch):
        """Constructing an engine compares the frozen specs: two
        ``to_dict()`` trees per ``parallel_for(executor="cluster")`` is
        24 ms on ``gpu_cluster(64, 8)``."""
        from repro.machine.spec import MachineSpec

        def no_to_dict(self):
            raise AssertionError("engine construction serialised a machine")

        monkeypatch.setattr(MachineSpec, "to_dict", no_to_dict)
        machine = gpu_cluster(2, 2).flatten()
        eng = ClusterEngine(machine=machine, cluster=gpu_cluster(2, 2))
        assert eng.cluster.n_nodes == 2
        with pytest.raises(OffloadError, match="flatten"):
            ClusterEngine(machine=machine, cluster=gpu_cluster(2, 3))

    def test_bad_placement_rejected(self):
        with pytest.raises(OffloadError, match="placement"):
            ClusterEngine(machine=gpu4_node(), placement="scattered")

    def test_bad_node_split_rejected(self):
        with pytest.raises(OffloadError, match="node_split"):
            ClusterEngine(machine=gpu4_node(), node_split="cyclic")


class TestSingleNodeBitIdentity:
    """The pin: an intra-node-only cluster run is byte-identical to the
    ``virtual`` backend on the same machine."""

    @pytest.mark.parametrize("policy", ["BLOCK", "SCHED_DYNAMIC", "MODEL_1_AUTO"])
    @pytest.mark.parametrize("machine", [gpu4_node, full_node])
    def test_pickle_identical(self, policy, machine):
        m = machine()
        _, rv, _, rc = run_pair(
            "axpy", 60_000, policy,
            make_backend("virtual", m),
            make_backend("cluster", m),
        )
        assert pickle.dumps(rv) == pickle.dumps(rc)

    def test_single_node_cluster_spec_also_identical(self):
        node = gpu4_node()
        c = ClusterSpec(name=node.name, nodes=(node,))
        _, rv, _, rc = run_pair(
            "matvec", 256, "SCHED_GUIDED",
            make_backend("virtual", node),
            ClusterEngine.for_cluster(c),
        )
        assert pickle.dumps(rv) == pickle.dumps(rc)

    def test_single_node_supports_fault_plans(self):
        plan = FaultPlan.of(Slowdown(devid=1, factor=2.0))
        eng = make_backend("cluster", gpu4_node(), fault_plan=plan)
        res = eng.run(make_kernel("axpy", 50_000), make_scheduler("SCHED_DYNAMIC"))
        assert res.total_time_s > 0

    def test_introspection_passthrough(self):
        eng = make_backend("cluster", gpu4_node(), collect_chunks=True)
        eng.run(make_kernel("axpy", 50_000), make_scheduler("BLOCK"))
        log = eng.chunk_log
        assert log and sum(len(c) for _, c in log) == 50_000


class TestMultiNode:
    def test_numerics_match_reference(self):
        c = gpu_cluster(4, 2)
        eng = ClusterEngine.for_cluster(c)
        kernel = make_kernel("axpy", 100_000)
        eng.run(kernel, make_scheduler("SCHED_DYNAMIC"))
        ref = kernel.reference()
        for name, want in ref.items():
            np.testing.assert_allclose(kernel.arrays[name], want)

    def test_reduction_combines_across_nodes(self):
        c = gpu_cluster(3, 2)
        eng = ClusterEngine.for_cluster(c)
        kernel = make_kernel("sum", 90_001)
        res = eng.run(kernel, make_scheduler("BLOCK"))
        assert res.reduction == pytest.approx(kernel.reference(), rel=1e-9)

    def test_traces_cover_every_device_with_global_ids(self):
        c = gpu_cluster(4, 2)
        res = ClusterEngine.for_cluster(c).run(
            make_kernel("axpy", 80_000), make_scheduler("BLOCK")
        )
        assert [t.devid for t in res.traces] == list(range(8))
        assert all(t.participated for t in res.traces)

    def test_chunk_log_uses_global_device_ids(self):
        c = gpu_cluster(2, 2)
        eng = ClusterEngine.for_cluster(c, collect_chunks=True)
        eng.run(make_kernel("axpy", 40_000), make_scheduler("BLOCK"))
        log = eng.chunk_log
        devids = {devid for devid, _ in log}
        assert devids & {0, 1} and devids & {2, 3}
        assert sum(len(chunk) for _, chunk in log) == 40_000

    def test_shards_recorded_in_meta_cover_space(self):
        c = gpu_cluster(5, 2)
        res = ClusterEngine.for_cluster(c).run(
            make_kernel("axpy", 99_999), make_scheduler("BLOCK")
        )
        shards = res.meta["cluster"]["shards"]
        assert shards[0][0] == 0 and shards[-1][1] == 99_999
        assert sum(e - s for s, e in shards) == 99_999

    def test_staging_delays_non_head_nodes(self):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        res = ClusterEngine.for_cluster(c).run(
            make_kernel("axpy", 100_000), make_scheduler("BLOCK")
        )
        cl = res.meta["cluster"]
        assert cl["stage_in_s"][0] == 0.0  # head holds the host image
        assert cl["stage_in_s"][1] > 0.0
        assert cl["fabric_bytes_in"][1] > 0.0

    def test_head_placement_pays_collection(self):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        res = ClusterEngine.for_cluster(c, placement="head").run(
            make_kernel("axpy", 100_000), make_scheduler("BLOCK")
        )
        cl = res.meta["cluster"]
        assert cl["fabric_bytes_out"][1] > 0.0
        assert cl["collect_s"][1] > 0.0

    def test_aligned_placement_elides_staging(self):
        c = gpu_cluster(2, 2, fabric=ETHERNET_10GBE)
        head = ClusterEngine.for_cluster(c, placement="head").run(
            make_kernel("axpy", 100_000), make_scheduler("BLOCK")
        )
        aligned = ClusterEngine.for_cluster(c, placement="aligned").run(
            make_kernel("axpy", 100_000), make_scheduler("BLOCK")
        )
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
        res = ClusterEngine.for_cluster(c, placement="aligned").run(
            make_kernel("stencil", n), make_scheduler("BLOCK")
        )
        cl = res.meta["cluster"]
        k = make_kernel("stencil", n)
        row_b = k.row_nbytes("u_in")
        halo_rows = cl["fabric_bytes_in"][1] / row_b
        # The radius-3 stencil's cross-node halo is RADIUS rows per
        # boundary; far less than restaging the whole shard (n/2 rows).
        assert 0 < halo_rows <= 8
        assert cl["fabric_bytes_in"][1] < row_b * n / 4

    def test_shared_fabric_serialises_staging(self):
        c = gpu_cluster(3, 2, fabric=ETHERNET_10GBE)
        shared = ClusterEngine.for_cluster(c, fabric_shared=True).run(
            make_kernel("axpy", 120_000), make_scheduler("BLOCK")
        )
        private = ClusterEngine.for_cluster(c, fabric_shared=False).run(
            make_kernel("axpy", 120_000), make_scheduler("BLOCK")
        )
        assert shared.total_time_s > private.total_time_s

    def test_weighted_node_split_matches_block_for_homogeneous(self):
        c = gpu_cluster(4, 2)
        rb = ClusterEngine.for_cluster(c, node_split="block").run(
            make_kernel("axpy", 100_000), make_scheduler("BLOCK")
        )
        rw = ClusterEngine.for_cluster(c, node_split="weighted").run(
            make_kernel("axpy", 100_000), make_scheduler("BLOCK")
        )
        assert rb.meta["cluster"]["shards"] == rw.meta["cluster"]["shards"]

    def test_node_spans_carry_node_ids(self):
        tracer = Tracer(clock="virtual")
        c = gpu_cluster(2, 2, fabric=INFINIBAND_EDR)
        ClusterEngine.for_cluster(c, tracer=tracer).run(
            make_kernel("axpy", 60_000), make_scheduler("BLOCK")
        )
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
        res = ClusterEngine.for_cluster(c).run(
            make_kernel("axpy", 100_000), make_scheduler("BLOCK")
        )
        cl = res.meta["cluster"]
        assert res.total_time_s == pytest.approx(max(cl["node_finish_s"]))
        assert res.total_time_s >= max(
            r + t for r, t in zip(cl["stage_in_s"], cl["node_compute_s"])
        )


class TestMultiNodeGuards:
    def setup_method(self):
        self.eng = ClusterEngine.for_cluster(gpu_cluster(2, 2))
        self.kernel = make_kernel("axpy", 10_000)

    def test_record_events_rejected(self):
        self.eng.record_events = True
        with pytest.raises(OffloadError, match="record"):
            self.eng.run(self.kernel, make_scheduler("BLOCK"))

    def test_fault_plans_rejected(self):
        self.eng.fault_plan = FaultPlan.of(
            Slowdown(devid=0, factor=2.0)
        )
        with pytest.raises(OffloadError, match="fault"):
            self.eng.run(self.kernel, make_scheduler("BLOCK"))

    def test_align_scheduler_rejected(self):
        self.kernel.set_partition("x", __import__("repro.dist", fromlist=["Block"]).Block())
        with pytest.raises(OffloadError, match="ALIGN"):
            self.eng.run(self.kernel, make_scheduler("ALIGN", target="x"))
