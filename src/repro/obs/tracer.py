"""Tracers: where instrumented code sends its spans.

Two implementations share one duck type:

* :class:`Tracer` — records every span and instant in memory, alongside a
  :class:`~repro.obs.metrics.MetricsRegistry`; this is what exporters and
  analyses consume.
* :class:`NullTracer` — the permanently disabled singleton
  (:data:`NULL_TRACER`).  Instrumented hot paths read one attribute
  (``tracer.enabled``) into a local bool and skip every emission when it
  is False, so a run without observability pays a single attribute check
  per offload, not per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span, freeze_args

__all__ = [
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "resolve_tracer",
]


class NullTracer:
    """No-op tracer; every emission is a constant-time discard."""

    __slots__ = ()

    enabled = False
    metrics: MetricsRegistry | None = None

    def span(self, *args: Any, **kwargs: Any) -> None:
        return None

    def instant(self, *args: Any, **kwargs: Any) -> None:
        return None

    @property
    def spans(self) -> list[Span]:
        return []


#: The shared disabled tracer (stateless, safe to share everywhere).
NULL_TRACER = NullTracer()


class Tracer:
    """In-memory span collector with an attached metrics registry.

    Span times are the engine's virtual seconds.
    """

    enabled = True

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: list[Span] = []
        #: Run-level context (kernel, algorithm, machine), set by engines.
        self.meta: dict[str, Any] = {}

    # -- emission --------------------------------------------------------------

    def span(
        self,
        name: str,
        cat: str,
        devid: int,
        device: str,
        t0: float,
        t1: float,
        **args: Any,
    ) -> None:
        self.spans.append(
            Span(
                name=name,
                cat=cat,
                devid=devid,
                device=device,
                t0=t0,
                t1=t1,
                args=freeze_args(args),
            )
        )

    def instant(
        self,
        name: str,
        cat: str,
        devid: int,
        device: str,
        t: float,
        **args: Any,
    ) -> None:
        self.span(name, cat, devid, device, t, t, **args)

    # -- queries ---------------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def device_names(self) -> dict[int, str]:
        """devid -> device name, for every device that emitted a span."""
        out: dict[int, str] = {}
        for s in self.spans:
            if s.devid >= 0 and s.devid not in out:
                out[s.devid] = s.device
        return out

    # -- scoped views ----------------------------------------------------------

    def bind(
        self, *, devid_offset: int = 0, t_offset: float = 0.0, **labels: Any
    ) -> "_BoundTracer":
        """A view that stamps ``labels`` on every span emitted through it.

        The cluster runner binds ``node=<k>`` with the node's global
        device-id base and its staging delay (how exporters tell apart
        same-named devices on different nodes, on one cluster timeline);
        the stream runner binds ``batch=<k>`` with no offsets, since
        batches already run in cumulative stream time.  Views nest.
        """
        return _BoundTracer(self, devid_offset, t_offset, labels)


@dataclass(frozen=True, slots=True)
class _BoundTracer:
    """A label-stamping view of a tracer (what :meth:`Tracer.bind` returns).

    Every emission made through the view lands in the *base* tracer's
    span stream with the bound labels stamped on it, device ids offset
    (run-level ``devid < 0`` spans excepted) and timestamps shifted.
    Everything else (queries, metrics, meta) is the base tracer's.
    """

    base: "Tracer | _BoundTracer"
    devid_offset: int
    t_offset: float
    labels: dict[str, Any]

    def __getattr__(self, name: str):
        return getattr(self.base, name)

    def span(
        self,
        name: str,
        cat: str,
        devid: int,
        device: str,
        t0: float,
        t1: float,
        **args: Any,
    ) -> None:
        self.base.span(
            name,
            cat,
            devid + self.devid_offset if devid >= 0 else devid,
            device,
            t0 + self.t_offset,
            t1 + self.t_offset,
            **self.labels,
            **args,
        )

    instant = Tracer.instant  # a zero-length span, through this view
    bind = Tracer.bind  # views nest: offsets add up, labels accumulate


def resolve_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """The tracer an engine should actually emit to.

    ``None`` or a disabled tracer resolves to :data:`NULL_TRACER`.
    """
    if tracer is None or not tracer.enabled:
        return NULL_TRACER
    return tracer
