"""Read-only views of a :class:`ResidencyLedger`'s state, for tests.

The ledger exposes what the runtime asks of it (``known``, ``stage``,
``retained``, ...); these views read the rest, so a test can compare the
whole state against a model.
"""

from __future__ import annotations

from repro.memory.residency import ResidencyLedger
from repro.util.ranges import IterRange


def valid_rows(led: ResidencyLedger, dev: int, name: str) -> list[IterRange]:
    """The rows of ``name`` valid on ``dev``, as sorted disjoint ranges."""
    return [IterRange(s, e) for s, e in led._valid.get(name, {}).get(dev, [])]


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
        "valid": flat(led._valid),
    }
