"""Exception hierarchy for the HOMP reproduction.

All library errors derive from :class:`HompError` so callers can catch one
base type.  Subclasses are grouped by subsystem: parsing of the HOMP
directive syntax, machine/device configuration, data distribution and
alignment, and scheduling.
"""

from __future__ import annotations

__all__ = [
    "HompError",
    "DirectiveSyntaxError",
    "IRVerifyError",
    "MachineSpecError",
    "DeviceError",
    "MappingError",
    "DistributionError",
    "AlignmentError",
    "SchedulingError",
    "OffloadError",
    "EngineBusyError",
    "FaultPlanError",
    "FaultError",
    "ServiceError",
    "JobSpecError",
    "AdmissionError",
    "ServiceClosedError",
    "JobCancelled",
    "JobExpired",
]


class HompError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class DirectiveSyntaxError(HompError, ValueError):
    """A HOMP directive string could not be parsed.

    Carries the offending ``text`` and a best-effort character ``position``
    to aid diagnostics, mirroring a compiler front-end error.
    """

    def __init__(self, message: str, *, text: str = "", position: int | None = None):
        self.text = text
        self.position = position
        if text:
            where = f" at position {position}" if position is not None else ""
            message = f"{message}{where}: {text!r}"
        super().__init__(message)


class IRVerifyError(HompError, ValueError):
    """A lowered offload program failed IR verification.

    Raised when an op is structurally malformed (unknown array, policy
    rank mismatch, negative halo, ...) or when a rewrite pass meets
    irreconcilable inputs (conflicting partition policies on one array).
    """


class MachineSpecError(HompError, ValueError):
    """A machine description file or device spec is invalid."""


class DeviceError(HompError):
    """A device was addressed that does not exist or cannot execute."""


class MappingError(HompError, ValueError):
    """A ``map`` clause is inconsistent with the mapped array."""


class DistributionError(HompError, ValueError):
    """A distribution policy cannot be applied to the given region."""


class AlignmentError(DistributionError):
    """An ALIGN relationship is unresolvable (cycle, missing alignee, ...)."""


class SchedulingError(HompError):
    """A loop-distribution algorithm failed or was misconfigured."""


class OffloadError(HompError):
    """An offload region failed during execution."""


class EngineBusyError(OffloadError):
    """``run()`` was entered on an engine whose previous run is still in
    flight.  Engine objects are reusable sequentially, never concurrently:
    per-run state lives in the run's own context, but the last-run
    introspection slot (``timeline``) is one per engine."""


class FaultPlanError(HompError, ValueError):
    """A fault plan or resilience policy is malformed."""


class FaultError(OffloadError):
    """Injected faults made the offload unrecoverable (e.g. every device
    was lost while iterations remained)."""


class ServiceError(HompError):
    """Base class for errors raised by the offload service (:mod:`repro.service`)."""


class JobSpecError(ServiceError, ValueError):
    """An :class:`~repro.service.OffloadJob` is malformed (bad factory,
    machine, cutoff, ...) and was rejected before admission."""


class AdmissionError(ServiceError):
    """A job submission exceeded its tenant's quota.

    ``retry_after_s`` is the service's Retry-After-style hint: the number
    of seconds after which a resubmission has a chance of being admitted
    (exact for token-bucket rate rejections, heuristic for in-flight and
    queue-capacity rejections).  ``reason`` is a stable machine-readable
    label: ``"rate"``, ``"in_flight"`` or ``"queue_full"``.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str = "",
        reason: str = "",
        retry_after_s: float = 0.0,
    ):
        self.tenant = tenant
        self.reason = reason
        self.retry_after_s = float(retry_after_s)
        super().__init__(message)


class ServiceClosedError(ServiceError):
    """A job was submitted to a service that is not running."""


class JobCancelled(ServiceError):
    """A queued job was cancelled before it was dispatched.

    Carried as the ``error`` of a :class:`~repro.service.JobResult` in
    state ``CANCELLED`` — handles resolve with it, they never raise it;
    :meth:`~repro.service.JobResult.unwrap` re-raises it like any other
    job failure.
    """


class JobExpired(ServiceError):
    """A queued job outlived its ``deadline_s`` before dispatch.

    Like :class:`JobCancelled`, this travels as the ``error`` of a
    :class:`~repro.service.JobResult` (state ``EXPIRED``) — handles
    resolve with it, never raise it.  Work already on an engine is never
    expired: the deadline is checked only while the job sits in the
    queue, so a slow *run* still completes normally.
    """
