"""The ledger against a brute-force per-row model, and the aliasing contract
of its in-place validity lists.

The model keeps one ``set`` of valid rows and one row -> refcount dict per
(device, array); every ledger call is replayed on it and, after every step,
``describe()`` (sorted, disjoint, adjacent spans coalesced) and every return
value must agree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MappingError
from repro.memory.residency import ResidencyLedger, _add, _gaps, _remove
from repro.util.ranges import IterRange
from tests.memory.ledger_state import snapshot, valid_rows

DEVS = (0, 1, 2)
ARRAYS = {"a": (24, 8), "b": (16, 24)}  # name -> (rows, row_bytes)


def _runs(rows) -> list[tuple[int, int]]:
    """Maximal runs of a set of ints as half-open spans."""
    out: list[list[int]] = []
    for r in sorted(rows):
        if out and out[-1][1] == r:
            out[-1][1] = r + 1
        else:
            out.append([r, r + 1])
    return [(s, e) for s, e in out]


class Model:
    def __init__(self) -> None:
        self.known: set[str] = set()
        self.valid = {(d, n): set() for d in DEVS for n in ARRAYS}
        self.refs = {(d, n): {} for d in DEVS for n in ARRAYS}

    def rows(self, name, ranges) -> set[int]:
        extent = range(ARRAYS[name][0])
        return {i for r in ranges for i in range(r.start, r.stop) if i in extent}

    def forget_if_unreferenced(self, name) -> None:
        if not any(self.refs[d, name] for d in DEVS):
            self.known.discard(name)
            for d in DEVS:
                self.valid[d, name].clear()

    def describe(self) -> dict:
        refs = {}
        for (d, n), counts in self.refs.items():
            segs = [
                (s, e, k)
                for k in set(counts.values())
                for s, e in _runs(i for i, c in counts.items() if c == k)
            ]
            if segs:
                refs[f"{d}:{n}"] = sorted(segs)
        return {
            "arrays": {
                n: {"rows": ARRAYS[n][0], "row_bytes": ARRAYS[n][1]}
                for n in sorted(self.known)
            },
            "refs": refs,
            "valid": {
                f"{d}:{n}": _runs(rows)
                for (d, n), rows in self.valid.items() if rows
            },
        }


# Empty, adjacent, overlapping and out-of-extent spans all occur; starts and
# lengths sit on a grid of 2 most of the time so that spans touch often.
_on_grid = st.tuples(st.integers(-2, 13), st.integers(0, 4)).map(
    lambda p: (2 * p[0], 2 * p[1])
)
_anywhere = st.tuples(st.integers(-4, 28), st.integers(0, 9))
range_st = st.one_of(_on_grid, _on_grid, _anywhere).map(
    lambda p: IterRange(p[0], p[0] + p[1])
)
ranges_st = st.lists(range_st, max_size=3)
dev_st = st.sampled_from(DEVS)
name_st = st.sampled_from(sorted(ARRAYS))
holders_st = st.lists(dev_st, max_size=3, unique=True).map(tuple)
op_st = st.one_of(
    st.tuples(st.just("register"), name_st),
    st.tuples(st.just("retain"), dev_st, name_st, ranges_st),
    st.tuples(st.just("release"), dev_st, name_st, ranges_st),
    st.tuples(st.just("mark_valid"), dev_st, name_st, ranges_st),
    st.tuples(st.just("invalidate"), dev_st, name_st, ranges_st),
    st.tuples(st.just("stage"), dev_st, name_st, ranges_st, holders_st),
    st.tuples(st.just("missing"), holders_st, name_st, ranges_st),
    st.tuples(st.just("note_write"), dev_st, name_st, range_st),
    st.tuples(st.just("invalidate_device"), dev_st),
)


def _step(led: ResidencyLedger, m: Model, op) -> None:
    kind, *args = op
    if kind == "register":
        (name,) = args
        led.register(name, *ARRAYS[name])
        m.known.add(name)
    elif kind == "invalidate_device":
        (dev,) = args
        lost = sum(len(m.valid[dev, n]) for n in ARRAYS)
        assert led.invalidate_device(dev) == lost
        for n in ARRAYS:
            m.valid[dev, n].clear()
    elif kind == "missing":
        devs, name, ranges = args
        want = m.rows(name, ranges) if name in m.known else set()
        for d in devs:
            want -= m.valid[d, name]
        assert led.missing_everywhere(devs, name, ranges) == len(want)
    elif kind == "stage":
        dev, name, ranges, holders = args
        if name not in m.known:
            assert led.stage(dev, name, ranges, holders) == 0
            return
        rows = m.rows(name, ranges)
        missing = set(rows)
        for d in holders:
            missing -= m.valid[d, name]
        assert led.stage(dev, name, ranges, holders) == len(missing)
        m.valid[dev, name] |= rows
    elif kind == "invalidate":
        dev, name, ranges = args
        led.invalidate(dev, name, ranges)
        if name in m.known:
            m.valid[dev, name] -= m.rows(name, ranges)
    elif kind != "release" and args[1] not in m.known:
        dev, name, what = args  # these three need the geometry
        with pytest.raises(KeyError):
            getattr(led, kind)(dev, name, what)
    elif kind == "retain":
        dev, name, ranges = args
        led.retain(dev, name, ranges)
        counts = m.refs[dev, name]
        for i in m.rows(name, ranges):
            counts[i] = counts.get(i, 0) + 1
    elif kind == "mark_valid":
        dev, name, ranges = args
        led.mark_valid(dev, name, ranges)
        m.valid[dev, name] |= m.rows(name, ranges)
    elif kind == "note_write":
        dev, name, written = args
        led.note_write(dev, name, written)
        rows = m.rows(name, [written])
        for d in DEVS:
            m.valid[d, name] -= rows
        m.valid[dev, name] |= rows
    elif kind == "release":
        dev, name, ranges = args
        if name not in m.known:
            assert led.release(dev, name, ranges) == ([], 0)
            return
        counts = m.refs[dev, name]
        rows = m.rows(name, ranges)
        if any(i not in counts for i in rows):
            with pytest.raises(MappingError, match="released more times"):
                led.release(dev, name, ranges)
            return
        unmapped = {i for i in rows if counts[i] == 1}
        n_valid = len(m.valid[dev, name] & unmapped)
        for i in rows:
            counts[i] -= 1
            if not counts[i]:
                del counts[i]
        if counts:
            m.valid[dev, name] -= unmapped
        else:  # last reference on the device: all its validity goes
            m.valid[dev, name].clear()
        m.forget_if_unreferenced(name)
        assert led.release(dev, name, ranges) == (
            [IterRange(s, e) for s, e in _runs(unmapped)], n_valid,
        )
    else:  # pragma: no cover
        raise AssertionError(kind)


@settings(max_examples=300, deadline=None)
@given(st.sets(name_st), st.lists(op_st, max_size=40))
def test_ledger_matches_per_row_model(registered, ops):
    led, m = ResidencyLedger(), Model()
    for op in [("register", n) for n in sorted(registered)] + ops:
        _step(led, m, op)
        assert snapshot(led) == m.describe(), op
        assert led.empty == (not m.known)
        for d in DEVS:
            for n in ARRAYS:
                assert valid_rows(led, d, n) == [
                    IterRange(s, e) for s, e in _runs(m.valid[d, n])
                ]
                assert led.retained(d, n) == [
                    IterRange(s, e) for s, e in _runs(m.refs[d, n])
                ]


def test_span_primitives_exhaustively_over_a_small_universe():
    """Every validity list over 8 rows x every non-empty span: the three
    bisect-windowed primitives against set arithmetic."""
    universe = range(8)
    spans = [(s, e) for s in universe for e in range(s + 1, 9)]
    for bits in range(1 << 8):
        rows = {i for i in universe if bits >> i & 1}
        for s, e in spans:
            span = set(range(s, e))
            def index(held):  # device 0 holds ``held``, device 1 nothing
                return {0: _runs(held)} if held else {}

            added, removed = index(rows), index(rows)
            _add(added, 0, [(s, e)])
            _remove(removed, (0, 1), [(s, e)])
            assert added == index(rows | span)
            assert removed == index(rows - span)
            assert _gaps(index(rows), (1, 0), [(s, e)]) == _runs(span - rows)


# ------------------------------------------------------------- aliasing


def _placed() -> ResidencyLedger:
    led = ResidencyLedger()
    led.register("a", 24, 8)
    for dev, rows in ((0, IterRange(0, 12)), (1, IterRange(12, 24))):
        led.retain(dev, "a", [rows])
        led.mark_valid(dev, "a", [rows])
    return led


@pytest.mark.parametrize("edit", [
    lambda led: led.note_write(1, "a", IterRange(4, 8)),
    lambda led: led.invalidate(0, "a", [IterRange(2, 5)]),
    lambda led: led.release(0, "a", [IterRange(0, 12)]),
    lambda led: led.stage(0, "a", [IterRange(10, 20)], (0, 1)),
])
def test_in_place_edits_do_not_alias_what_callers_hold(edit):
    led = _placed()
    held = (valid_rows(led, 0, "a"), led.retained(0, "a"), snapshot(led))
    copies = ([*held[0]], [*held[1]], {
        k: {kk: list(vv) if isinstance(vv, list) else dict(vv)
            for kk, vv in v.items()}
        for k, v in held[2].items()
    })
    edit(led)
    assert held[0] == copies[0]
    assert held[1] == copies[1]
    assert held[2] == copies[2]
    assert snapshot(led) != copies[2]  # the edit itself did land


def test_invalidate_that_empties_a_list_drops_the_key():
    led = _placed()
    led.invalidate(0, "a", [IterRange(0, 12)])
    assert "0:a" not in snapshot(led)["valid"]
    assert valid_rows(led, 0, "a") == []
    led.note_write(0, "a", IterRange(12, 24))  # stales all of device 1's copy
    assert sorted(snapshot(led)["valid"]) == ["0:a"]
    for dev, rows in ((0, IterRange(0, 12)), (1, IterRange(12, 24))):
        led.release(dev, "a", [rows])
    assert led.empty
    assert snapshot(led) == {"arrays": {}, "refs": {}, "valid": {}}
