"""Declarative, seed-deterministic fault plans.

A :class:`FaultPlan` is an immutable description of *what goes wrong* on a
machine, in virtual time:

* :class:`Slowdown` — a device runs ``factor`` times slower inside a
  window (a straggler; the window may be open-ended),
* :class:`TransferError` — each copy-in/copy-out attempt on a device's
  link fails with probability ``p_fail`` (a flaky link),
* :class:`DeviceDropout` — a device dies permanently at virtual time
  ``t`` (mid-offload loss).  Inside a target-data region a dropout also
  invalidates everything the device held in the residency ledger
  (:meth:`repro.memory.residency.ResidencyLedger.invalidate_device`):
  rows whose only valid copy died are re-charged when surviving devices
  adopt the orphaned chunks.

Stochastic faults draw from a counter-based hash (BLAKE2b over the fault
seed, device id, attempt counter and transfer direction), never from
global RNG state or the wall clock: the same plan, seed and engine
configuration produce bit-identical fault sequences in every run, in every
process, and under any ``run_grid`` worker count.

``REPRO_FAULTS=off`` disables injection globally (the engine ignores any
plan it was given), which is the quickest A/B switch for a faulted sweep.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field

from repro.errors import FaultPlanError

__all__ = [
    "FAULTS_ENV",
    "faults_enabled",
    "Slowdown",
    "TransferError",
    "DeviceDropout",
    "FaultPlan",
]

FAULTS_ENV = "REPRO_FAULTS"


def faults_enabled() -> bool:
    """Global kill switch: ``REPRO_FAULTS=off`` ignores every fault plan."""
    v = os.environ.get(FAULTS_ENV, "on").strip().lower()
    return v not in ("off", "0", "false", "no")


def _unit_draw(*parts: object) -> float:
    """Deterministic draw in ``[0, 1)`` from a tuple of hashable parts.

    Counter-based (a keyed hash, not a stateful RNG) so a draw depends
    only on its coordinates — never on how many draws other devices made
    or on scheduling interleave.
    """
    h = hashlib.blake2b(
        "\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=8
    )
    (x,) = struct.unpack(">Q", h.digest())
    return x / 2**64


@dataclass(frozen=True)
class Slowdown:
    """Device ``devid`` runs ``factor``x slower during ``[t_start, t_end)``.

    Applies multiplicatively to every pipeline stage (copy-in, compute,
    copy-out) that *starts* inside the window; overlapping slowdowns
    stack multiplicatively.
    """

    devid: int
    factor: float
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self) -> None:
        if self.devid < 0:
            raise FaultPlanError(f"Slowdown devid must be >= 0, got {self.devid}")
        if not self.factor > 0.0 or not math.isfinite(self.factor):
            raise FaultPlanError(
                f"Slowdown factor must be positive and finite, got {self.factor}"
            )
        if self.t_start < 0.0 or self.t_end < self.t_start:
            raise FaultPlanError(
                f"Slowdown window [{self.t_start}, {self.t_end}) is invalid"
            )

    def active_at(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass(frozen=True)
class TransferError:
    """Each transfer attempt on ``devid``'s link fails with ``p_fail``.

    Failures are transient: the engine retries with backoff (see
    :class:`~repro.faults.policy.RetryPolicy`).  Draws are keyed by a
    per-device attempt counter, so re-served chunks face fresh draws and a
    flaky link cannot deterministically livelock one chunk.
    """

    devid: int
    p_fail: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.devid < 0:
            raise FaultPlanError(f"TransferError devid must be >= 0, got {self.devid}")
        if not 0.0 <= self.p_fail < 1.0:
            raise FaultPlanError(
                f"TransferError p_fail must be in [0, 1), got {self.p_fail}"
            )

    def fails(self, attempt: int, direction: str) -> bool:
        """Does transfer attempt ``attempt`` (a per-device counter) fail?"""
        return (
            _unit_draw("xfer", self.seed, self.devid, attempt, direction)
            < self.p_fail
        )


@dataclass(frozen=True)
class DeviceDropout:
    """Device ``devid`` is permanently lost at virtual time ``t``.

    Work in flight at ``t`` is lost with the device (outputs only return
    at copy-out) and is reassigned to the survivors.
    """

    devid: int
    t: float

    def __post_init__(self) -> None:
        if self.devid < 0:
            raise FaultPlanError(f"DeviceDropout devid must be >= 0, got {self.devid}")
        if self.t < 0.0 or not math.isfinite(self.t):
            raise FaultPlanError(
                f"DeviceDropout time must be finite and >= 0, got {self.t}"
            )


_FAULT_TYPES = (Slowdown, TransferError, DeviceDropout)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of faults to inject into one machine's offloads.

    The plan is pure data: the engine consults it at each pipeline stage;
    the plan itself holds no mutable state and draws no global randomness,
    so one plan instance can be shared across runs and processes.
    """

    faults: tuple[Slowdown | TransferError | DeviceDropout, ...] = ()
    name: str = ""
    _dropouts: dict = field(
        default=None, init=False, repr=False, compare=False  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        for f in faults:
            if not isinstance(f, _FAULT_TYPES):
                raise FaultPlanError(
                    f"unknown fault type {type(f).__name__}; expected one of "
                    f"{', '.join(t.__name__ for t in _FAULT_TYPES)}"
                )
        object.__setattr__(self, "faults", faults)
        drops: dict[int, float] = {}
        for f in faults:
            if isinstance(f, DeviceDropout):
                drops[f.devid] = min(f.t, drops.get(f.devid, math.inf))
        object.__setattr__(self, "_dropouts", drops)

    @classmethod
    def of(cls, *faults: Slowdown | TransferError | DeviceDropout,
           name: str = "") -> "FaultPlan":
        return cls(faults=tuple(faults), name=name)

    @property
    def empty(self) -> bool:
        return not self.faults

    # -- engine queries ------------------------------------------------------

    def slowdown_factor(self, devid: int, t: float) -> float:
        """Combined slowdown multiplier for a stage starting at ``t``."""
        factor = 1.0
        for f in self.faults:
            if isinstance(f, Slowdown) and f.devid == devid and f.active_at(t):
                factor *= f.factor
        return factor

    def transfer_fails(self, devid: int, attempt: int, direction: str) -> bool:
        """Does this device's transfer attempt ``attempt`` fail?

        ``attempt`` is a per-device monotonic counter maintained by the
        engine; ``direction`` is ``"in"`` or ``"out"``.
        """
        return any(
            f.fails(attempt, direction)
            for f in self.faults
            if isinstance(f, TransferError) and f.devid == devid
        )

    def dropout_t(self, devid: int) -> float | None:
        """Earliest dropout time for ``devid``, or None if it never dies."""
        return self._dropouts.get(devid)

    # -- serialisation (artifacts) ------------------------------------------

    def to_dict(self) -> dict:
        """Stable JSON-able identity of the plan.

        Faults are emitted in a canonical sort order, so two plans listing
        the same faults in different order fingerprint identically.
        """
        entries = []
        for f in self.faults:
            if isinstance(f, Slowdown):
                entries.append({
                    "kind": "slowdown", "devid": f.devid, "factor": f.factor,
                    "t_start": f.t_start,
                    "t_end": None if math.isinf(f.t_end) else f.t_end,
                })
            elif isinstance(f, TransferError):
                entries.append({
                    "kind": "transfer-error", "devid": f.devid,
                    "p_fail": f.p_fail, "seed": f.seed,
                })
            else:
                entries.append({"kind": "dropout", "devid": f.devid, "t": f.t})
        entries.sort(key=lambda e: sorted(e.items()).__repr__())
        return {"name": self.name, "faults": entries}

    def describe(self) -> str:
        if self.empty:
            return "fault-free"
        label = self.name or "plan"
        return f"{label}({len(self.faults)} faults)"
