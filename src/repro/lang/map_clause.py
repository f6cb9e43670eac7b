"""Parser for extended ``map`` clauses (paper §III.3).

Grammar (one clause):

    map(direction: item[, item]...)

where each item is

    name[lo:extent][[lo:extent]...] [partition([policy][, policy]...)] [halo(lo[,hi])]

``partition`` takes one policy per array dimension (FULL, BLOCK, AUTO,
ALIGN(target[, ratio])); scalars have no sections and no
partition.  ``halo(1,)`` follows the paper's Jacobi example (Fig. 3): a
lower halo of 1 and an elided upper width meaning "same as lower".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.dist.policy import Full, Policy, parse_policy
from repro.errors import DirectiveSyntaxError
from repro.memory.space import MapDirection

__all__ = ["ParsedMap", "parse_map_clause"]


@dataclass(frozen=True)
class ArraySection:
    """One ``[lower:extent]`` array section (strings: may be symbolic)."""

    lower: str
    extent: str


@dataclass(frozen=True)
class ParsedMap:
    """One mapped variable with its sections, partition and halo."""

    name: str
    direction: MapDirection
    sections: tuple[ArraySection, ...] = ()
    policies: tuple[Policy, ...] = ()
    halo: tuple[int, int] = (0, 0)

    @property
    def is_scalar(self) -> bool:
        return not self.sections


_NAME_RE = re.compile(r"^[A-Za-z_]\w*")
_SECTION_RE = re.compile(r"^\[\s*([^:\[\]]*)\s*:\s*([^:\[\]]*)\s*\]")


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside any bracket/paren nesting."""
    out: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise DirectiveSyntaxError("unbalanced brackets", text=text)
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise DirectiveSyntaxError("unbalanced brackets", text=text)
    out.append("".join(cur))
    return out


def _clause_body(text: str, head: str) -> str:
    """``text`` without its optional ``head`` word and optional enclosing
    pair of parentheses — every clause parser accepts ``head(body)``,
    ``(body)`` and ``body``."""
    body = text.strip()
    if body.startswith(head):
        body = body[len(head):].strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    return body


def _take_group(text: str, full: str) -> tuple[str, str]:
    """Split ``text``, which must open with ``(``, into that balanced
    group (brackets included) and the stripped remainder."""
    if not text.startswith("("):
        raise DirectiveSyntaxError("expected '('", text=full)
    depth = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth == 0:
                if ch == ")":
                    return text[: i + 1], text[i + 1:].strip()
                break  # "(...]": closed by the wrong bracket
    raise DirectiveSyntaxError("unbalanced clause parentheses", text=full)


def _policy_list(body: str) -> tuple[Policy, ...]:
    """Policies of a comma list, each optionally bracketed: the paper
    writes both ``partition([BLOCK])`` and ``partition([ALIGN(loop1)],
    FULL)``.  Empty entries are skipped (the caller names an empty list)."""
    tokens = []
    for raw in _split_top_level(body.strip(), ","):
        t = raw.strip()
        if t.startswith("[") and t.endswith("]"):
            t = t[1:-1].strip()
        if t:
            tokens.append(t)
    return tuple(parse_policy(t) for t in tokens)


def _parse_halo(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in _clause_body(text, "halo").split(",")]
    if len(parts) == 1:
        parts.append(parts[0])
    if len(parts) != 2:
        raise DirectiveSyntaxError("halo takes one or two widths", text=text)
    lo_s, hi_s = parts
    if lo_s == "" and hi_s == "":
        raise DirectiveSyntaxError("halo needs at least one width", text=text)
    # 'halo(1,)' means symmetric width 1 (the elided side mirrors the other).
    if lo_s == "":
        lo_s = hi_s
    if hi_s == "":
        hi_s = lo_s
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise DirectiveSyntaxError("halo widths must be integers", text=text) from None
    if lo < 0 or hi < 0:
        raise DirectiveSyntaxError("halo widths must be >= 0", text=text)
    return lo, hi


def _parse_item(text: str, direction: MapDirection) -> ParsedMap | None:
    """Parse one mapped item of a ``direction`` clause (None if blank)."""
    item = text.strip()
    if not item:
        return None
    m = _NAME_RE.match(item)
    if not m:
        raise DirectiveSyntaxError("expected variable name", text=text)
    name = m.group(0)
    rest = item[m.end():].strip()

    sections: list[ArraySection] = []
    while rest.startswith("["):
        sm = _SECTION_RE.match(rest)
        if not sm:
            raise DirectiveSyntaxError("bad array section", text=text)
        sections.append(ArraySection(sm.group(1).strip(), sm.group(2).strip()))
        rest = rest[sm.end():].strip()

    policies: tuple[Policy, ...] = ()
    halo = (0, 0)
    while rest:
        if rest.startswith("partition"):
            tail = rest[len("partition"):].strip()
            if not tail.startswith("("):
                raise DirectiveSyntaxError("partition expects (...)", text=text)
            group, rest = _take_group(tail, text)
            policies = _policy_list(group[1:-1])  # one per dimension
            if not policies:
                raise DirectiveSyntaxError("empty partition", text=text)
        elif rest.startswith("halo"):
            tail = rest[len("halo"):].strip()
            group, rest = _take_group(tail, text)
            halo = _parse_halo(group)
        else:
            raise DirectiveSyntaxError("unexpected token in map item", text=rest)
        rest = rest.strip()

    if sections and not policies:
        policies = tuple(Full() for _ in sections)
    if sections and len(policies) != len(sections):
        raise DirectiveSyntaxError(
            f"{len(policies)} partition policies for {len(sections)} "
            "array dimensions",
            text=text,
        )
    return ParsedMap(
        name=name,
        direction=direction,
        sections=tuple(sections),
        policies=policies,
        halo=halo,
    )


def parse_map_clause(text: str) -> list[ParsedMap]:
    """Parse ``map(direction: item, item, ...)`` into :class:`ParsedMap`s."""
    body = _clause_body(text, "map")
    if ":" not in body:
        raise DirectiveSyntaxError("map clause needs 'direction:'", text=text)
    dir_s, items_s = body.split(":", 1)
    direction = MapDirection.parse(dir_s)
    out: list[ParsedMap] = []
    for token in _split_top_level(items_s, ","):
        parsed = _parse_item(token, direction)
        if parsed is not None:
            out.append(parsed)
    if not out:
        raise DirectiveSyntaxError("map clause maps nothing", text=text)
    return out
