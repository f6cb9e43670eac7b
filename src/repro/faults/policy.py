"""Resilience policy: bounded retry-with-backoff and device quarantine.

The runtime's reaction to faults mirrors what the paper's CUTOFF heuristic
does statically ("don't involve devices whose contribution isn't worth
their overhead"), extended from *predicted too slow* to *observed
unhealthy*:

* transient transfer failures are retried with exponential backoff, in
  virtual time, up to ``max_retries`` times per transfer;
* a chunk whose retries are exhausted is a chunk-level fault: it is
  handed back for reassignment and counts against the device's health;
* :class:`HealthTracker` quarantines a device after ``quarantine_after``
  *consecutive* chunk-level faults (a success resets the streak) —
  quarantined devices receive no further work and their in-flight chunk
  is drained by the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FaultPlanError

__all__ = ["RetryPolicy", "ResiliencePolicy", "HealthTracker", "DEFAULT_RESILIENCE"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient transfer faults.

    The k-th retry waits ``backoff_s * backoff_factor**k`` of virtual time
    on top of the re-issued transfer itself.
    """

    max_retries: int = 3
    backoff_s: float = 50e-6
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        n = self.max_retries
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise FaultPlanError(f"max_retries must be an int >= 0, got {n!r}")
        if isinstance(self.backoff_s, bool) or self.backoff_s < 0.0:
            raise FaultPlanError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if isinstance(self.backoff_factor, bool) or self.backoff_factor < 1.0:
            raise FaultPlanError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Virtual-time wait after failed attempt ``attempt`` (0-based)."""
        return self.backoff_s * self.backoff_factor**attempt


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the runtime reacts to injected faults."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        q = self.quarantine_after
        if isinstance(q, bool) or not isinstance(q, int) or q < 1:
            raise FaultPlanError(f"quarantine_after must be an int >= 1, got {q!r}")

    def to_dict(self) -> dict:
        """Stable JSON-able identity (for sweep artifacts)."""
        return {
            "max_retries": self.retry.max_retries,
            "backoff_s": self.retry.backoff_s,
            "backoff_factor": self.retry.backoff_factor,
            "quarantine_after": self.quarantine_after,
        }


DEFAULT_RESILIENCE = ResiliencePolicy()


class HealthTracker:
    """Consecutive-fault counter with a quarantine threshold per device."""

    def __init__(self, quarantine_after: int):
        if isinstance(quarantine_after, bool) or quarantine_after < 1:
            raise FaultPlanError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.quarantine_after = quarantine_after
        self._streak: dict[int, int] = {}
        self.quarantined: set[int] = set()

    def record_success(self, devid: int) -> None:
        """A chunk completed: the device's fault streak resets."""
        self._streak[devid] = 0

    def record_failure(self, devid: int) -> bool:
        """A chunk-level fault occurred; True if this quarantines the device."""
        if devid in self.quarantined:
            return False
        streak = self._streak.get(devid, 0) + 1
        self._streak[devid] = streak
        if streak >= self.quarantine_after:
            self.quarantined.add(devid)
            return True
        return False

    def consecutive_faults(self, devid: int) -> int:
        return self._streak.get(devid, 0)
