"""ALIGN resolution graph: chains, ratios, cycles, re-linking."""

import pytest

from repro.dist.align import AlignmentGraph
from repro.dist.distribution import DimDistribution
from repro.dist.policy import Align, Block
from repro.errors import AlignmentError
from repro.util.ranges import IterRange


def block_dist(n=12, ndev=3):
    return DimDistribution.from_policy(Block(), IterRange(0, n), ndev)


def test_resolve_concrete_directly():
    g = AlignmentGraph()
    d = block_dist()
    g.add_concrete("x", d)
    assert g.resolve("x") is d


def test_single_align_copies_ranges():
    g = AlignmentGraph()
    g.add_concrete("x", block_dist(12, 3))
    g.add_align("loop", Align("x"))
    out = g.resolve("loop")
    assert out.sizes() == (4, 4, 4)
    assert out.device_ranges(1) == block_dist(12, 3).device_ranges(1)


def test_align_chain_resolves_to_root():
    g = AlignmentGraph()
    g.add_concrete("root", block_dist(12, 3))
    g.add_align("a", Align("root"))
    g.add_align("b", Align("a"))
    assert g.root_of("b") == ("root", 1.0)
    assert g.resolve("b").sizes() == (4, 4, 4)


def test_ratios_compose_along_chain():
    g = AlignmentGraph()
    g.add_concrete("root", block_dist(10, 2))
    g.add_align("a", Align("root", ratio=2.0))
    g.add_align("b", Align("a", ratio=3.0))
    root, ratio = g.root_of("b")
    assert root == "root"
    assert ratio == 6.0
    assert len(g.resolve("b").region) == 60


def test_cycle_detected():
    g = AlignmentGraph()
    g.add_align("a", Align("b"))
    g.add_align("b", Align("a"))
    with pytest.raises(AlignmentError):
        g.root_of("a")


def test_self_alignment_rejected():
    g = AlignmentGraph()
    with pytest.raises(AlignmentError):
        g.add_align("a", Align("a"))


def test_missing_target_rejected():
    g = AlignmentGraph()
    g.add_align("a", Align("ghost"))
    with pytest.raises(AlignmentError):
        g.resolve("a")


def test_unknown_name_rejected():
    with pytest.raises(AlignmentError):
        AlignmentGraph().resolve("nope")


def test_cannot_be_both_concrete_and_aligned():
    g = AlignmentGraph()
    g.add_concrete("x", block_dist())
    with pytest.raises(AlignmentError):
        g.add_align("x", Align("y"))
    g2 = AlignmentGraph()
    g2.add_align("x", Align("y"))
    with pytest.raises(AlignmentError):
        g2.add_concrete("x", block_dist())


def test_resolved_policy_is_preserved():
    g = AlignmentGraph()
    g.add_concrete("x", block_dist())
    align = Align("x", ratio=1.0)
    g.add_align("loop", align)
    out = g.resolve("loop")
    assert out.policy is align
