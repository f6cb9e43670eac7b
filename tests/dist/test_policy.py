"""Table I distribution policies and the policy token parser."""

import pytest

from repro.dist.policy import Align, Auto, Block, Full, parse_policy
from repro.errors import DirectiveSyntaxError, DistributionError
from repro.util.ranges import IterRange


class TestFull:
    def test_replicates(self):
        parts = Full().split(IterRange(0, 10), 3)
        assert len(parts) == 3
        assert all(p == [IterRange(0, 10)] for p in parts)

    def test_invalid_ndev(self):
        with pytest.raises(DistributionError):
            Full().split(IterRange(0, 10), 0)


class TestBlock:
    def test_contiguous_blocks(self):
        parts = Block().split(IterRange(0, 10), 4)
        assert [p[0] for p in parts] == [
            IterRange(0, 3), IterRange(3, 6), IterRange(6, 8), IterRange(8, 10)
        ]

    def test_str(self):
        assert str(Block()) == "BLOCK"


class TestAlignAuto:
    def test_align_needs_graph(self):
        with pytest.raises(DistributionError):
            Align("x").split(IterRange(0, 10), 2)

    def test_auto_needs_scheduler(self):
        with pytest.raises(DistributionError):
            Auto().split(IterRange(0, 10), 2)

    def test_align_validation(self):
        with pytest.raises(DistributionError):
            Align("")
        with pytest.raises(DistributionError):
            Align("x", ratio=0)

    def test_needs_runtime_flags(self):
        assert Align("x").needs_runtime
        assert Auto().needs_runtime
        assert not Block().needs_runtime
        assert not Full().needs_runtime

    def test_str_forms(self):
        assert str(Align("x")) == "ALIGN(x)"
        assert str(Align("x", 2.0)) == "ALIGN(x,2)"
        assert str(Auto()) == "AUTO"


class TestParsePolicy:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("FULL", Full()),
            ("full", Full()),
            ("BLOCK", Block()),
            (" block ", Block()),
            ("AUTO", Auto()),
            ("auto", Auto()),
            ("Block", Block()),
            ("ALIGN(x)", Align("x")),
            ("ALIGN(loop1)", Align("loop1")),
            ("align(x, 2.0)", Align("x", 2.0)),
            ("ALIGN(x,0.5)", Align("x", 0.5)),
        ],
    )
    def test_valid_tokens(self, text, expected):
        assert parse_policy(text) == expected

    @pytest.mark.parametrize(
        "text",
        # CYCLIC is not one of the paper's Table I policies.
        ["", "BLOK", "ALIGN()", "ALIGN(1x)", "CYCLIC", "CYCLIC(8)", "CYCLIC(-1)",
         "ALIGN(x"],
    )
    def test_invalid_tokens(self, text):
        with pytest.raises(DirectiveSyntaxError):
            parse_policy(text)

    def test_round_trip_via_str(self):
        for p in (Full(), Block(), Auto(), Align("u", 2.0)):
            assert parse_policy(str(p)) == p
