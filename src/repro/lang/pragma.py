"""Whole-directive parser: the paper's Fig. 2 pragmas as strings.

Parses combined HOMP directives of the form::

    omp parallel target device(*) \\
        map(tofrom: y[0:n] partition([BLOCK])) \\
        map(to: x[0:n] partition([BLOCK]), a, n)
    omp parallel for distribute dist_schedule(target:[ALIGN(x)])

(the leading ``#pragma`` is optional).  The result is an
:class:`OffloadDirective` bundling the pieces the runtime needs: parallel
offloading flag, device selection text, maps, and the dist_schedule.
Clause order is free, as in OpenMP.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import DirectiveSyntaxError
from repro.lang.dist_schedule import ParsedDistSchedule, parse_dist_schedule
from repro.lang.map_clause import ParsedMap, _take_group, parse_map_clause
from repro.lang.stream_clause import ParsedStream, parse_stream_clause

__all__ = ["OffloadDirective", "parse_directive"]

_KNOWN_DIRECTIVES = {
    "parallel",
    "target",
    "for",
    "distribute",
    "data",
    "teams",
    "simd",
    "halo_exchange",
}

_CLAUSE_HEADS = (
    "device",
    "map",
    "dist_schedule",
    "reduction",
    "collapse",
    "shared",
    "num_threads",
    "halo_exchange",
    "stream",
)


@dataclass
class OffloadDirective:
    """A parsed HOMP directive."""

    directives: tuple[str, ...]
    device_clause: str | None = None
    maps: list[ParsedMap] = field(default_factory=list)
    dist_schedule: ParsedDistSchedule | None = None
    reduction: tuple[str, str] | None = None  # (op, var)
    collapse: int | None = None
    stream: ParsedStream | None = None
    other_clauses: dict[str, str] = field(default_factory=dict)

    @property
    def is_parallel_target(self) -> bool:
        """The ``parallel target`` composite of paper §III.4."""
        d = self.directives
        return "parallel" in d and "target" in d

    @property
    def is_data_region(self) -> bool:
        return "data" in self.directives


def _strip_pragma(text: str) -> str:
    t = text.strip()
    t = re.sub(r"\\\s*\n", " ", t)  # line continuations
    t = re.sub(r"\s+", " ", t)
    for prefix in ("#", "pragma", "omp"):  # each optional, in this order
        if t.startswith(prefix):
            t = t[len(prefix):].strip()
    return t


def _take_clause(text: str) -> tuple[str, str, str]:
    """Pop one ``head(...)`` clause; returns (head, "(...)" group, rest)."""
    m = re.match(r"^([a-z_]+)\s*\(", text)
    if not m:
        raise DirectiveSyntaxError("expected a clause", text=text)
    return (m.group(1), *_take_group(text[m.end() - 1:], text))


def parse_directive(text: str) -> OffloadDirective:
    """Parse one HOMP directive string."""
    body = _strip_pragma(text)
    if not body:
        raise DirectiveSyntaxError("empty directive", text=text)

    directives: list[str] = []
    pos_text = body
    # Leading directive-name words (until the first clause head with parens).
    while pos_text:
        m = re.match(r"^([a-z_]+)", pos_text)
        if not m:
            break
        word = m.group(1)
        after = pos_text[m.end():].lstrip()
        if word in _CLAUSE_HEADS and after.startswith("("):
            break
        if word not in _KNOWN_DIRECTIVES:
            raise DirectiveSyntaxError(f"unknown directive {word!r}", text=text)
        directives.append(word)
        pos_text = after

    out = OffloadDirective(directives=tuple(directives))

    rest = pos_text.strip()
    seen_clauses: set[str] = set()
    while rest:
        # Directive words may be interleaved with clauses, as in Fig. 3's
        # "... reduction(+:error) distribute dist_schedule(...)".
        m = re.match(r"^([a-z_]+)", rest)
        if m:
            word = m.group(1)
            after = rest[m.end():].lstrip()
            is_clause = word in _CLAUSE_HEADS and after.startswith("(")
            if not is_clause and word in _KNOWN_DIRECTIVES:
                directives.append(word)
                out.directives = tuple(directives)
                rest = after
                continue
        head, group, rest = _take_clause(rest)
        clause_body = group[1:-1]
        # Every clause but map() may appear at most once — a second
        # occurrence would silently overwrite the first, so name it.
        if head != "map" and head in seen_clauses:
            raise DirectiveSyntaxError(
                f"duplicate {head!r} clause", text=text
            )
        seen_clauses.add(head)
        if head == "device":
            out.device_clause = group
        elif head == "map":
            out.maps.extend(parse_map_clause(group))
        elif head == "dist_schedule":
            out.dist_schedule = parse_dist_schedule(group)
        elif head == "reduction":
            if ":" not in clause_body:
                raise DirectiveSyntaxError("reduction needs 'op:var'", text=text)
            op, var = clause_body.split(":", 1)
            out.reduction = (op.strip(), var.strip())
        elif head == "collapse":
            try:
                out.collapse = int(clause_body.strip())
            except ValueError:
                raise DirectiveSyntaxError(
                    "collapse needs an integer", text=text
                ) from None
        elif head == "stream":
            out.stream = parse_stream_clause(clause_body)
        else:
            out.other_clauses[head] = clause_body.strip()
    return out
