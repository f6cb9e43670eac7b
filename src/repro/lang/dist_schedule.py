"""Parser for the extended ``dist_schedule`` clause (paper §III.2).

Grammar: ``dist_schedule(modifier: [policy][, policy]...)`` where the
modifier is ``target`` (distribution across devices — the HOMP extension)
or ``teams`` (within-device, standard OpenMP semantics).  One policy per
collapsed loop dimension.  The policies are the Table I set
(:func:`repro.dist.policy.parse_policy`: ``BLOCK``, ``AUTO``,
``ALIGN(x[, ratio])``, ...) — ``AUTO`` is resolved by the runtime's
heuristically selected algorithm.  Table II algorithm notations
(``SCHED_DYNAMIC``, ``MODEL_1_AUTO``, ...) are *not* directive syntax;
they go through the ``schedule=`` keyword of the Python API.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dist.policy import Policy
from repro.errors import DirectiveSyntaxError
from repro.lang.map_clause import _clause_body, _policy_list

__all__ = ["ParsedDistSchedule", "parse_dist_schedule"]


@dataclass(frozen=True)
class ParsedDistSchedule:
    """A ``dist_schedule`` clause: modifier + per-loop-dim policies."""

    modifier: str  # "target" | "teams"
    policies: tuple[Policy, ...]


def parse_dist_schedule(text: str) -> ParsedDistSchedule:
    body = _clause_body(text, "dist_schedule")
    if ":" not in body:
        raise DirectiveSyntaxError(
            "dist_schedule needs a 'target:' or 'teams:' modifier", text=text
        )
    mod_s, rest = body.split(":", 1)
    modifier = mod_s.strip().lower()
    if modifier not in ("target", "teams"):
        raise DirectiveSyntaxError(
            f"unknown dist_schedule modifier {modifier!r}", text=text
        )
    policies = _policy_list(rest)
    if not policies:
        raise DirectiveSyntaxError("dist_schedule lists no policies", text=text)
    return ParsedDistSchedule(modifier=modifier, policies=policies)
