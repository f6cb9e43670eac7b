"""Read-only views of a :class:`ResidencyLedger`'s state, for tests.

The ledger exposes what the runtime asks of it (``known``, ``stage``,
``retained``, ...); these views read the rest, so a test can compare the
whole state against a model.  Validity is read off each array's holder map
as one sorted, coalesced span list per device.
"""

from __future__ import annotations

from repro.memory.residency import ResidencyLedger
from repro.util.ranges import IterRange


def _by_device(holders) -> dict[int, list[tuple[int, int]]]:
    """A holder map ``(breakpoints, masks)`` as device -> valid spans."""
    at, masks = holders
    out: dict[int, list[tuple[int, int]]] = {}
    for i, mask in enumerate(masks):
        dev = 0
        while mask:
            if mask & 1:
                spans = out.setdefault(dev, [])
                if spans and spans[-1][1] == at[i]:
                    spans[-1] = (spans[-1][0], at[i + 1])
                else:
                    spans.append((at[i], at[i + 1]))
            mask >>= 1
            dev += 1
    return out


def valid_rows(led: ResidencyLedger, dev: int, name: str) -> list[IterRange]:
    """The rows of ``name`` valid on ``dev``, as sorted disjoint ranges."""
    if name not in led._valid:
        return []
    return [IterRange(s, e) for s, e in _by_device(led._valid[name]).get(dev, [])]


def snapshot(led: ResidencyLedger) -> dict:
    """The ledger's geometry, refcounts and validity as plain values."""

    def flat(table: dict) -> dict:
        return {
            f"{d}:{n}": list(entries)
            for d, n, entries in sorted(
                (d, n, entries)
                for n, by_dev in table.items()
                for d, entries in by_dev.items()
            )
        }

    return {
        "arrays": {
            n: {"rows": led._rows[n], "row_bytes": led._row_bytes[n]}
            for n in sorted(led._rows)
        },
        "refs": flat(led._refs),
        "valid": flat({n: _by_device(h) for n, h in led._valid.items()}),
    }
