"""Directive rendering and parse/render round-trips (grammar fuzzing)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.policy import Align, Block, Full, Auto
from repro.lang.dist_schedule import ParsedDistSchedule
from repro.lang.map_clause import ArraySection, ParsedMap
from repro.lang.pragma import OffloadDirective, parse_directive
from repro.lang.render import render_directive
from repro.memory.space import MapDirection


def test_render_fig2_style():
    d = OffloadDirective(
        directives=("parallel", "target"),
        device_clause="(*)",
        maps=[
            ParsedMap(
                name="y",
                direction=MapDirection.TOFROM,
                sections=(ArraySection("0", "n"),),
                policies=(Block(),),
            ),
            ParsedMap(name="a", direction=MapDirection.TO),
        ],
    )
    text = render_directive(d)
    assert text.startswith("#pragma omp parallel target device(*)")
    assert "map(tofrom: y[0:n] partition([BLOCK]))" in text
    assert "map(to: a)" in text


def test_round_trip_of_paper_fig3_sweep():
    src = ("omp parallel for target device(*) reduction(+:error) "
           "distribute dist_schedule(target:[AUTO])")
    d = parse_directive(src)
    d2 = parse_directive(render_directive(d))
    assert d2.directives == d.directives
    assert d2.reduction == d.reduction
    assert d2.dist_schedule == d.dist_schedule


_names = st.sampled_from(["x", "y", "u", "uold", "f", "data1"])
_policies_1d = st.sampled_from([Full(), Block(), Align("loop"), Align("loop1", 2.0)])


@st.composite
def parsed_maps(draw):
    name = draw(_names)
    ndim = draw(st.integers(0, 3))
    sections = tuple(
        ArraySection(str(draw(st.integers(0, 9))), draw(st.sampled_from(["n", "m", "64"])))
        for _ in range(ndim)
    )
    policies = tuple(draw(_policies_1d) for _ in range(ndim))
    halo = (0, 0)
    if ndim:
        halo = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    return ParsedMap(
        name=name,
        direction=draw(st.sampled_from(list(MapDirection))),
        sections=sections,
        policies=policies,
        halo=halo,
    )


@st.composite
def directives(draw):
    kind = draw(st.sampled_from([("target",), ("parallel", "target"),
                                 ("parallel", "for", "target"),
                                 ("parallel", "target", "data")]))
    maps = draw(st.lists(parsed_maps(), max_size=4))
    dist = None
    if draw(st.booleans()):
        dist = ParsedDistSchedule(
            modifier=draw(st.sampled_from(["target", "teams"])),
            policies=tuple(
                draw(st.lists(st.sampled_from([Auto(), Block(), Full(), Align("x")]),
                              min_size=1, max_size=2))
            ),
        )
    reduction = ("+", "err") if draw(st.booleans()) else None
    collapse = draw(st.sampled_from([None, 2, 3]))
    return OffloadDirective(
        directives=kind,
        device_clause=draw(st.sampled_from([None, "(*)", "(0:2)", "(0:*:NVGPU)"])),
        maps=maps,
        dist_schedule=dist,
        reduction=reduction,
        collapse=collapse,
    )


@settings(max_examples=150, deadline=None)
@given(d=directives())
def test_property_parse_render_round_trip(d):
    # Exact round trip: the renderer emits consecutive same-direction
    # maps as one clause run, so the parsed map *list* (order included)
    # reproduces the original — not merely the same set.
    text = render_directive(d)
    parsed = parse_directive(text)
    assert parsed == d


@settings(max_examples=150, deadline=None)
@given(d=directives())
def test_property_render_is_idempotent(d):
    text = render_directive(d)
    assert render_directive(parse_directive(text)) == text


def test_render_preserves_interleaved_map_directions():
    # to / from / to must stay three clauses in order; global grouping
    # by direction would fold the two to-maps together and reorder.
    d = parse_directive(
        "omp parallel target map(to: x[0:n]) map(from: y[0:n]) map(to: z)"
    )
    text = render_directive(d)
    assert text.index("map(to: x") < text.index("map(from: y") < text.index(
        "map(to: z"
    )
    assert parse_directive(text) == d
