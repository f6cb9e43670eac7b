"""One clause scanner: the five clause parsers share one head/parens rule.

Each of ``parse_map_clause``, ``parse_dist_schedule``,
``parse_device_clause``, ``parse_stream_clause`` and the map item's
``halo(...)`` reader accepts ``head(body)``, ``(body)`` and ``body``; the
error table is the parent commit's message for every unbalanced, empty
and trailing-garbage input, text for text.
"""

import pytest

from repro.dist.policy import Auto, Block
from repro.errors import DirectiveSyntaxError, MappingError
from repro.lang import (
    parse_device_clause,
    parse_directive,
    parse_dist_schedule,
    parse_map_clause,
    parse_stream_clause,
)
from repro.lang.map_clause import _parse_halo
from repro.lang.stream_clause import ParsedStream
from repro.machine.presets import full_node

MACHINE = full_node()

PARSERS = {
    "map": parse_map_clause,
    "dist_schedule": parse_dist_schedule,
    "device": lambda text: parse_device_clause(text, MACHINE),
    "stream": parse_stream_clause,
    # The public route to the halo reader: one item of a map clause.
    "halo": lambda text: parse_map_clause(
        "to: u[0:n] partition([BLOCK]) " + text
    )[0].halo,
}

ACCEPTED = [
    ("map", "to: x[0:n] partition([BLOCK])", lambda maps: maps[0].policies == (Block(),)),
    ("dist_schedule", "target:[AUTO], BLOCK", lambda d: d.policies == (Auto(), Block())),
    ("device", "0:2, 4:2", lambda ids: ids == [0, 1, 4, 5]),
    ("stream", "batches=3, window=4", lambda s: s == ParsedStream(3, 4)),
]


@pytest.mark.parametrize("name,body,check", ACCEPTED, ids=[a[0] for a in ACCEPTED])
@pytest.mark.parametrize("form", ["{body}", "({body})", "{head}({body})", " {head} ( {body} ) "])
def test_every_clause_parser_takes_head_and_parens_or_neither(name, body, check, form):
    assert check(PARSERS[name](form.format(head=name, body=body)))


@pytest.mark.parametrize("text", ["1,2", "(1,2)", "halo(1,2)", " halo (1,2) "])
def test_halo_reader_takes_head_and_parens_or_neither(text):
    assert _parse_halo(text) == (1, 2)


ERRORS = [
    ('map', 'map(to: x[0:n] partition([BLOCK])', DirectiveSyntaxError, "unbalanced brackets: ' x[0:n] partition([BLOCK]'"),
    ('map', '(to: x[0:n]', MappingError, "unknown map direction '(to'"),
    ('map', '', DirectiveSyntaxError, "map clause needs 'direction:'"),
    ('map', '()', DirectiveSyntaxError, "map clause needs 'direction:': '()'"),
    ('map', 'map()', DirectiveSyntaxError, "map clause needs 'direction:': 'map()'"),
    ('map', 'map(to:)', DirectiveSyntaxError, "map clause maps nothing: 'map(to:)'"),
    ('map', 'map(to: x[0:n]) junk', MappingError, "unknown map direction '(to'"),
    ('map', 'map(to: x[0:n] junk)', DirectiveSyntaxError, "unexpected token in map item: 'junk'"),
    ('dist_schedule', 'dist_schedule(target:[AUTO]', DirectiveSyntaxError, "unknown dist_schedule modifier '(target': 'dist_schedule(target:[AUTO]'"),
    ('dist_schedule', 'dist_schedule(target:[AUTO)', DirectiveSyntaxError, "unbalanced brackets: '[AUTO'"),
    ('dist_schedule', '', DirectiveSyntaxError, "dist_schedule needs a 'target:' or 'teams:' modifier"),
    ('dist_schedule', '()', DirectiveSyntaxError, "dist_schedule needs a 'target:' or 'teams:' modifier: '()'"),
    ('dist_schedule', 'dist_schedule()', DirectiveSyntaxError, "dist_schedule needs a 'target:' or 'teams:' modifier: 'dist_schedule()'"),
    ('dist_schedule', 'dist_schedule(target:)', DirectiveSyntaxError, "dist_schedule lists no policies: 'dist_schedule(target:)'"),
    ('dist_schedule', 'dist_schedule(target:[AUTO]) junk', DirectiveSyntaxError, "unknown dist_schedule modifier '(target': 'dist_schedule(target:[AUTO]) junk'"),
    ('device', 'device(0:2', DirectiveSyntaxError, "device id must be an integer: '(0:2'"),
    ('device', '', DirectiveSyntaxError, 'empty device clause'),
    ('device', '()', DirectiveSyntaxError, "empty device clause: '()'"),
    ('device', 'device()', DirectiveSyntaxError, "empty device clause: 'device()'"),
    ('device', 'device(0,,1)', DirectiveSyntaxError, "empty device specifier: 'device(0,,1)'"),
    ('device', 'device(0:2) junk', DirectiveSyntaxError, "device id must be an integer: '(0:2) junk'"),
    ('stream', '(batches=3', DirectiveSyntaxError, "unknown stream clause key '(batches' (expected 'batches' or 'window'): '(batches=3'"),
    ('stream', '', DirectiveSyntaxError, 'empty stream clause'),
    ('stream', '()', DirectiveSyntaxError, "empty stream clause: '()'"),
    ('stream', 'batches=3,', DirectiveSyntaxError, "stream clause item '' is not 'key=value': 'batches=3,'"),
    ('stream', '(batches=3) junk', DirectiveSyntaxError, "unknown stream clause key '(batches' (expected 'batches' or 'window'): '(batches=3) junk'"),
    ('halo', 'halo(1', DirectiveSyntaxError, "unbalanced brackets: ' u[0:n] partition([BLOCK]) halo(1'"),
    ('halo', 'halo()', DirectiveSyntaxError, "halo needs at least one width: '()'"),
    ('halo', 'halo(,)', DirectiveSyntaxError, "halo needs at least one width: '(,)'"),
    ('halo', 'halo(1,2) junk', DirectiveSyntaxError, "unexpected token in map item: 'junk'"),
    ('halo', 'halo(1,2,3)', DirectiveSyntaxError, "halo takes one or two widths: '(1,2,3)'"),
    ('halo', 'halo 1', DirectiveSyntaxError, "expected '(': ' u[0:n] partition([BLOCK]) halo 1'"),
]


@pytest.mark.parametrize("name,text,exc_type,message", ERRORS)
def test_malformed_clause_messages_are_the_parents(name, text, exc_type, message):
    with pytest.raises(exc_type) as err:
        PARSERS[name](text)
    assert type(err.value) is exc_type
    assert str(err.value) == message


def test_directive_hands_each_parser_the_clause_group_as_written():
    # parse_directive slices the "(...)" group out of the pragma text for
    # the callee instead of re-wrapping the body: same messages as before.
    cases = {
        "omp parallel target map()": "map clause needs 'direction:': '()'",
        "omp parallel target dist_schedule()": (
            "dist_schedule needs a 'target:' or 'teams:' modifier: '()'"
        ),
        "omp parallel target stream()": "empty stream clause",
        "omp parallel target device(*": (
            "unbalanced clause parentheses: 'device(*'"
        ),
        "omp parallel target device(*))": "expected a clause: ')'",
    }
    for text, message in cases.items():
        with pytest.raises(DirectiveSyntaxError) as err:
            parse_directive(text)
        assert str(err.value) == message
    assert parse_directive("omp target device (0:2)").device_clause == "(0:2)"


def test_group_closed_by_the_wrong_bracket_is_unbalanced():
    with pytest.raises(DirectiveSyntaxError, match="unbalanced clause parentheses"):
        parse_directive("omp parallel target map(to: x[0:n]] )")
    with pytest.raises(DirectiveSyntaxError, match="unbalanced clause parentheses"):
        parse_map_clause("to: u[0:n] partition([BLOCK]) halo(1]")
