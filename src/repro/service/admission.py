"""Admission control and weighted-fair queueing for the offload service.

Two independent mechanisms share this module:

* :class:`AdmissionController` — decides, at submission time, whether a
  tenant may enqueue another job.  Three quota axes per tenant
  (:class:`TenantQuota`): a cap on jobs simultaneously queued-or-running
  (``max_in_flight``), a token-bucket submission rate (``rate`` jobs/s
  refill into a bucket of ``burst`` capacity), and a service-wide queue
  capacity shared by everyone.  Rejections raise
  :class:`~repro.errors.AdmissionError` with a stable ``reason`` label
  and a Retry-After-style hint — exact for rate rejections (the bucket
  knows when the next token lands), heuristic for the other two.

* :class:`WeightedFairQueue` — decides, at dispatch time, whose job runs
  next.  Classic stride scheduling: each tenant carries a *pass* value
  advanced by ``1/weight`` per served job; the dequeue picks the lowest
  pass (ties broken by tenant name, so the order is deterministic).  A
  tenant going idle and returning resumes at the queue's virtual time
  instead of its stale pass, so sleepers cannot hoard service credit.

The controller takes an injectable monotonic ``clock`` so tests drive
token refill deterministically.  Neither class is thread-safe on its
own; the service mutates both only from its event-loop thread.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from numbers import Real
from typing import Any, Callable

from repro.errors import AdmissionError

__all__ = ["TenantQuota", "AdmissionController", "WeightedFairQueue"]


def check_count(name: str, value: Any) -> None:
    """Refuse a bool, a non-integer or a value below 1 where a count is
    meant (a bool would otherwise pass as 1, and 2.5 as a size)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits and fair-share weight.

    ``rate`` is the sustained submission rate in jobs/second (``inf`` =
    unmetered); ``burst`` is the token-bucket capacity — how many jobs a
    quiet tenant may submit back to back before the rate applies.
    ``weight`` only shapes *dequeue* order (a weight-2 tenant is served
    twice as often as a weight-1 tenant under saturation); it never
    admits or rejects anything.
    """

    max_in_flight: int = 64
    rate: float = math.inf
    burst: int = 64
    weight: float = 1.0

    def __post_init__(self) -> None:
        check_count("quota max_in_flight", self.max_in_flight)
        check_count("quota burst", self.burst)
        for name in ("rate", "weight"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not value > 0):
                raise ValueError(
                    f"quota {name} must be a number > 0, got {value!r}"
                )


class _TokenBucket:
    """One tenant's submission-rate bucket (lazy refill on take)."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: int, now: float):
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = now

    def try_take(self, now: float) -> float:
        """0.0 when a token was taken, else seconds until one refills."""
        if math.isinf(self.rate):
            return 0.0
        self.tokens = min(
            self.burst, self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class AdmissionController:
    """Quota gate in front of the service queue.

    ``admit(tenant)`` either records one more in-flight job for the
    tenant or raises :class:`~repro.errors.AdmissionError`; every
    admitted job must eventually be paired with one ``release(tenant)``
    (the service does this on completion, failure, cancellation or expiry).
    ``queue_capacity`` bounds the *total* number of admitted-but-
    unfinished jobs across all tenants.
    """

    #: Retry-After hint for the heuristic (non-rate) rejections: the
    #: controller cannot know when a slot frees, so it suggests a short
    #: constant backoff.
    DEFAULT_RETRY_HINT_S = 0.05

    def __init__(
        self,
        *,
        quotas: "dict[str, TenantQuota] | None" = None,
        default_quota: TenantQuota | None = None,
        queue_capacity: int = 1024,
        clock: Callable[[], float] = time.monotonic,
        retry_hint_s: float = DEFAULT_RETRY_HINT_S,
    ):
        check_count("queue_capacity", queue_capacity)
        self.queue_capacity = queue_capacity
        self.clock = clock
        self.retry_hint_s = float(retry_hint_s)
        self._quotas = dict(quotas or {})
        self._default = default_quota or TenantQuota()
        self._buckets: dict[str, _TokenBucket] = {}
        self._in_flight: dict[str, int] = {}
        self.rejections = 0

    def quota(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self._default)

    def total_in_flight(self) -> int:
        return sum(self._in_flight.values())

    def admit(self, tenant: str) -> None:
        """Admit one job for ``tenant`` or raise :class:`AdmissionError`.

        Checks run cheapest-first and in increasing specificity: the
        shared queue capacity, the tenant's in-flight cap, then its rate
        bucket — a rate token is only consumed if the other gates pass.
        """
        quota = self.quota(tenant)
        if self.total_in_flight() >= self.queue_capacity:
            self.rejections += 1
            raise AdmissionError(
                f"service queue is full ({self.queue_capacity} jobs "
                f"admitted); retry in {self.retry_hint_s}s",
                tenant=tenant,
                reason="queue_full",
                retry_after_s=self.retry_hint_s,
            )
        held = self._in_flight.get(tenant, 0)
        if held >= quota.max_in_flight:
            self.rejections += 1
            raise AdmissionError(
                f"tenant {tenant!r} already has {held} jobs in flight "
                f"(quota {quota.max_in_flight}); retry in "
                f"{self.retry_hint_s}s",
                tenant=tenant,
                reason="in_flight",
                retry_after_s=self.retry_hint_s,
            )
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = _TokenBucket(
                quota.rate, quota.burst, self.clock()
            )
        wait = bucket.try_take(self.clock())
        if wait > 0.0:
            self.rejections += 1
            raise AdmissionError(
                f"tenant {tenant!r} exceeded its submission rate "
                f"({quota.rate}/s, burst {quota.burst}); retry in "
                f"{wait:.6f}s",
                tenant=tenant,
                reason="rate",
                retry_after_s=wait,
            )
        self._in_flight[tenant] = held + 1

    def release(self, tenant: str) -> None:
        """Return one in-flight slot (job finished, failed, cancelled or expired)."""
        held = self._in_flight.get(tenant, 0)
        if held <= 0:
            raise ValueError(
                f"release without matching admit for tenant {tenant!r}"
            )
        self._in_flight[tenant] = held - 1


class WeightedFairQueue:
    """Stride-scheduled multi-tenant FIFO.

    Items are FIFO *within* a tenant; *across* tenants each dequeue
    charges the serving tenant ``1/weight`` of pass and always picks the
    lowest-pass active tenant.  With weights 2:1 and both queues
    saturated, the weight-2 tenant is served exactly twice as often —
    deterministically, since ties break on the tenant name.

    ``priority_of`` (optional) maps a queued *item* to a positive
    priority that scales the serve charge: serving a priority-p item
    costs ``1/(weight * p)`` of pass instead of ``1/weight``, so a
    tenant whose jobs carry priority 4 advances its pass a quarter as
    fast and is dequeued four times as often under saturation.  Priority
    boosts the stride weight only — it never reorders a tenant's FIFO
    and never preempts.
    """

    def __init__(
        self,
        weight_of: "Callable[[str], float] | None" = None,
        priority_of: "Callable[[Any], float] | None" = None,
    ):
        self._weight_of = weight_of or (lambda tenant: 1.0)
        self._priority_of = priority_of or (lambda item: 1.0)
        self._queues: dict[str, deque] = {}
        self._pass: dict[str, float] = {}
        self._vtime = 0.0

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def push(self, tenant: str, item: Any) -> None:
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = deque()
        if not q:
            # Re-activating tenant: join at the current virtual time, not
            # at a stale (low) pass earned while idle.
            self._pass[tenant] = max(self._pass.get(tenant, 0.0), self._vtime)
        q.append(item)

    def _serve_cost(self, item: Any) -> float:
        priority = self._priority_of(item)
        if not priority > 0:
            raise ValueError(
                f"queued item has non-positive priority {priority!r}"
            )
        return 1.0 / priority

    def _charge(self, tenant: str, cost: float = 1.0) -> None:
        weight = self._weight_of(tenant)
        if not weight > 0:
            raise ValueError(f"tenant {tenant!r} has non-positive weight")
        self._pass[tenant] = self._pass.get(tenant, 0.0) + cost / weight

    def pop(self) -> tuple[str, Any]:
        """Dequeue the next item fairly; raises IndexError when empty."""
        active = [t for t, q in self._queues.items() if q]
        if not active:
            raise IndexError("pop from an empty WeightedFairQueue")
        tenant = min(active, key=lambda t: (self._pass.get(t, 0.0), t))
        self._vtime = self._pass.get(tenant, 0.0)
        item = self._queues[tenant].popleft()
        self._charge(tenant, self._serve_cost(item))
        return tenant, item

    def remove(self, tenant: str, item: Any) -> bool:
        """Withdraw one specific queued item (identity match).

        Returns True when the item was found and removed.  Unlike
        :meth:`pop` / :meth:`pop_matching`, a removal charges no pass —
        the tenant was never *served*, so cancelling a queued job must
        not cost fair-share credit.
        """
        q = self._queues.get(tenant)
        if not q:
            return False
        for queued in q:
            if queued is item:
                q.remove(queued)
                return True
        return False

    def pop_matching(
        self, match: Callable[[Any], bool], limit: int
    ) -> list[tuple[str, Any]]:
        """Extract up to ``limit`` queued items satisfying ``match``.

        Used by the coalescer to gather batch mates for a just-popped
        head job.  Tenants are scanned in fair (pass, name) order and
        each extracted item charges its tenant exactly like a ``pop``,
        so batching never lets a tenant jump its fair share.
        """
        if limit <= 0:
            return []
        out: list[tuple[str, Any]] = []
        order = sorted(
            (t for t, q in self._queues.items() if q),
            key=lambda t: (self._pass.get(t, 0.0), t),
        )
        for tenant in order:
            if len(out) >= limit:
                break
            q = self._queues[tenant]
            kept: deque = deque()
            cost = 0.0
            for item in q:
                if len(out) < limit and match(item):
                    out.append((tenant, item))
                    cost += self._serve_cost(item)
                else:
                    kept.append(item)
            if cost:
                self._queues[tenant] = kept
                self._charge(tenant, cost)
        return out
