"""Error hierarchy and the public package surface."""

import pytest

import repro
from repro.errors import (
    AlignmentError,
    DeviceError,
    DirectiveSyntaxError,
    DistributionError,
    FaultError,
    FaultPlanError,
    HompError,
    MachineSpecError,
    MappingError,
    OffloadError,
    SchedulingError,
)


class TestErrorHierarchy:
    def test_all_derive_from_homp_error(self):
        for exc in (
            DirectiveSyntaxError("x"),
            MachineSpecError("x"),
            DeviceError("x"),
            MappingError("x"),
            DistributionError("x"),
            AlignmentError("x"),
            SchedulingError("x"),
            OffloadError("x"),
            FaultPlanError("x"),
            FaultError("x"),
        ):
            assert isinstance(exc, HompError)

    def test_value_error_compatibility(self):
        # parsing/validation errors double as ValueErrors for ergonomic
        # except-clauses
        assert isinstance(DirectiveSyntaxError("x"), ValueError)
        assert isinstance(MachineSpecError("x"), ValueError)
        assert isinstance(DistributionError("x"), ValueError)
        assert isinstance(FaultPlanError("x"), ValueError)

    def test_fault_error_is_an_offload_error(self):
        assert isinstance(FaultError("x"), OffloadError)

    def test_alignment_is_a_distribution_error(self):
        assert isinstance(AlignmentError("x"), DistributionError)

    def test_directive_error_carries_context(self):
        e = DirectiveSyntaxError("bad token", text="device(zz)", position=7)
        assert "device(zz)" in str(e)
        assert "position 7" in str(e)
        assert e.text == "device(zz)"
        assert e.position == 7

    def test_directive_error_without_position(self):
        e = DirectiveSyntaxError("bad token", text="x")
        assert "position" not in str(e)


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.9.0"

    def test_project_version_is_repro_version(self):
        """pyproject.toml must not carry a second, literal version."""
        import tomllib
        from pathlib import Path

        doc = tomllib.loads(
            (Path(__file__).parent.parent / "pyproject.toml").read_text()
        )
        assert "version" not in doc["project"]
        assert "version" in doc["project"]["dynamic"]
        assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }

    def test_key_workflow_symbols_present(self):
        for name in (
            "HompRuntime",
            "MachineSpec",
            "full_node",
            "make_kernel",
            "make_scheduler",
            "parse_directive",
            "parse_device_clause",
            "select_algorithm",
            "TargetDataRegion",
            "OffloadResult",
            "FaultPlan",
            "ResiliencePolicy",
        ):
            assert name in repro.__all__

    def test_sched_package_exports(self):
        from repro import sched

        for name in sched.__all__:
            assert getattr(sched, name) is not None, name

    def test_engine_package_exports(self):
        from repro import engine

        for name in engine.__all__:
            assert getattr(engine, name) is not None, name
