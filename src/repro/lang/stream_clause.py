"""``stream(batches=N, window=W)`` clause parsing (HSTREAM direction).

HSTREAM extends the offload pragma surface with a streaming clause: the
annotated loop is not one offload but a *sequence* of ``batches`` loop
instances over evolving data, where each steady-state batch refreshes a
sliding ``window`` of rows at the head of the mapped arrays.  The HOMP
runtime lowers the clause to a :class:`~repro.ir.ops.StreamOp` whose
persistent data region keeps device-resident state across batches.

Grammar (order-free keyword list, as in OpenMP clause bodies)::

    stream(batches=1000)
    stream(batches=1000, window=64)

``batches`` is required and must be >= 1; ``window`` defaults to 0 (a
static stream: the same data every batch) and must be >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DirectiveSyntaxError
from repro.lang.map_clause import _clause_body

__all__ = ["ParsedStream", "parse_stream_clause"]


@dataclass(frozen=True)
class ParsedStream:
    """A parsed ``stream(...)`` clause."""

    batches: int
    window: int = 0

    def __post_init__(self) -> None:
        if self.batches < 1:
            raise DirectiveSyntaxError(
                f"stream batches must be >= 1, got {self.batches}"
            )
        if self.window < 0:
            raise DirectiveSyntaxError(
                f"stream window must be >= 0, got {self.window}"
            )


def parse_stream_clause(text: str) -> ParsedStream:
    """Parse a ``stream(...)`` clause (head and parentheses optional)."""
    body = _clause_body(text, "stream").strip()
    if not body:
        raise DirectiveSyntaxError("empty stream clause", text=text)
    fields: dict[str, int] = {}
    for item in body.split(","):
        item = item.strip()
        if "=" not in item:
            raise DirectiveSyntaxError(
                f"stream clause item {item!r} is not 'key=value'", text=text
            )
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in ("batches", "window"):
            raise DirectiveSyntaxError(
                f"unknown stream clause key {key!r} "
                "(expected 'batches' or 'window')", text=text
            )
        if key in fields:
            raise DirectiveSyntaxError(
                f"duplicate stream clause key {key!r}", text=text
            )
        try:
            fields[key] = int(value.strip())
        except ValueError:
            raise DirectiveSyntaxError(
                f"stream {key} needs an integer, got {value.strip()!r}",
                text=text,
            ) from None
    if "batches" not in fields:
        raise DirectiveSyntaxError(
            "stream clause needs 'batches=N'", text=text
        )
    return ParsedStream(
        batches=fields["batches"], window=fields.get("window", 0)
    )
