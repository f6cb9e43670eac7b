"""RetryPolicy backoff schedule and HealthTracker quarantine streaks."""

import pytest

from repro.errors import FaultPlanError
from repro.faults.policy import (
    DEFAULT_RESILIENCE,
    HealthTracker,
    ResiliencePolicy,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        p = RetryPolicy(max_retries=3, backoff_s=1e-4, backoff_factor=2.0)
        assert p.backoff(0) == pytest.approx(1e-4)
        assert p.backoff(1) == pytest.approx(2e-4)
        assert p.backoff(2) == pytest.approx(4e-4)

    def test_zero_retries_allowed(self):
        assert RetryPolicy(max_retries=0).max_retries == 0

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(FaultPlanError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(FaultPlanError):
            RetryPolicy(backoff_factor=0.5)


class TestResiliencePolicy:
    def test_defaults(self):
        assert DEFAULT_RESILIENCE.retry.max_retries == 3
        assert DEFAULT_RESILIENCE.quarantine_after == 3

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            ResiliencePolicy(quarantine_after=0)

    def test_to_dict_is_flat_and_stable(self):
        d = ResiliencePolicy(
            retry=RetryPolicy(max_retries=5, backoff_s=1e-3, backoff_factor=3.0),
            quarantine_after=2,
        ).to_dict()
        assert d == {
            "max_retries": 5,
            "backoff_s": 1e-3,
            "backoff_factor": 3.0,
            "quarantine_after": 2,
        }


class TestHealthTracker:
    def test_quarantines_after_consecutive_faults(self):
        h = HealthTracker(quarantine_after=3)
        assert not h.record_failure(0)
        assert not h.record_failure(0)
        assert h.record_failure(0)  # third consecutive -> quarantine
        assert h.quarantined == {0}

    def test_success_resets_streak(self):
        h = HealthTracker(quarantine_after=2)
        h.record_failure(0)
        h.record_success(0)
        assert not h.record_failure(0)  # streak restarted
        assert 0 not in h.quarantined
        assert h.consecutive_faults(0) == 1

    def test_devices_tracked_independently(self):
        h = HealthTracker(quarantine_after=2)
        h.record_failure(0)
        h.record_failure(1)
        assert 0 not in h.quarantined and 1 not in h.quarantined
        assert h.record_failure(1)
        assert h.quarantined == {1}

    def test_repeat_quarantine_reports_once(self):
        h = HealthTracker(quarantine_after=1)
        assert h.record_failure(0)
        assert not h.record_failure(0)  # already quarantined: no re-report

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            HealthTracker(quarantine_after=0)
