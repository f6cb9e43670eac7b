"""DeviceSpec / MachineSpec validation and the machine description file."""

import json
from dataclasses import replace

import pytest

from repro.errors import MachineSpecError
from repro.machine.interconnect import Link, SHARED_LINK
from repro.machine.presets import cpu_spec, full_node, k40_spec, mic_spec
from repro.machine.spec import DeviceSpec, DeviceType, MachineSpec, MemoryKind


class TestDeviceType:
    def test_parse_full_spelling(self):
        assert DeviceType.parse("HOMP_DEVICE_NVGPU") is DeviceType.NVGPU

    def test_parse_short_spelling(self):
        assert DeviceType.parse("nvgpu") is DeviceType.NVGPU
        assert DeviceType.parse("MIC") is DeviceType.MIC

    def test_parse_unknown_rejected(self):
        with pytest.raises(MachineSpecError):
            DeviceType.parse("FPGA")

    def test_short_property(self):
        assert DeviceType.HOSTCPU.short == "HOSTCPU"


class TestDeviceSpecValidation:
    def test_negative_perf_rejected(self):
        with pytest.raises(MachineSpecError):
            DeviceSpec("d", DeviceType.NVGPU, -1.0, 100.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(MachineSpecError):
            DeviceSpec("d", DeviceType.NVGPU, 100.0, 0.0)

    def test_negative_overheads_rejected(self):
        with pytest.raises(MachineSpecError):
            DeviceSpec("d", DeviceType.HOSTCPU, 100.0, 10.0, launch_overhead_s=-1)
        with pytest.raises(MachineSpecError):
            DeviceSpec("d", DeviceType.HOSTCPU, 100.0, 10.0, setup_overhead_s=-1)

    def test_bad_model_gflops_rejected(self):
        with pytest.raises(MachineSpecError):
            DeviceSpec("d", DeviceType.MIC, 100.0, 10.0, model_gflops=0.0)

    def test_shared_memory_requires_shared_link(self):
        with pytest.raises(MachineSpecError):
            DeviceSpec(
                "d",
                DeviceType.HOSTCPU,
                100.0,
                10.0,
                link=Link(1e-6, 10.0),
                memory=MemoryKind.SHARED,
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", [
        "sustained_gflops", "model_gflops", "mem_bandwidth_gbs",
        "launch_overhead_s", "sched_overhead_s", "setup_overhead_s", "noise",
    ])
    def test_non_finite_numbers_rejected(self, field, value):
        # A NaN passed every comparison-based bound; k40-1 at
        # sustained_gflops=nan then ran 1,062 iterations in compute_s=nan,
        # and the makespan's spelled-out max dropped it.
        with pytest.raises(MachineSpecError, match=field):
            replace(k40_spec(), **{field: value})

    def test_bool_noise_rejected(self):
        # noise=True ran as a lognormal sigma of 1.
        with pytest.raises(MachineSpecError, match="noise"):
            replace(k40_spec(), noise=True)

    def test_non_finite_number_in_a_machine_file_rejected(self, tmp_path):
        d = full_node().to_dict()
        d["devices"][2]["sustained_gflops"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))  # json writes (and reads) NaN
        with pytest.raises(MachineSpecError, match="sustained_gflops"):
            MachineSpec.from_file(path)

    def test_modeled_gflops_defaults_to_sustained(self):
        d = DeviceSpec("d", DeviceType.NVGPU, 100.0, 10.0,
                       link=Link(1e-6, 10.0), memory=MemoryKind.DISCRETE)
        assert d.modeled_gflops == 100.0

    def test_modeled_gflops_override(self):
        assert mic_spec().modeled_gflops > mic_spec().sustained_gflops

    def test_is_host(self):
        assert cpu_spec().is_host
        assert not k40_spec().is_host


class TestMachineSpec:
    def test_empty_machine_rejected(self):
        with pytest.raises(MachineSpecError):
            MachineSpec(name="m", devices=())

    def test_duplicate_names_rejected(self):
        d = cpu_spec("same")
        with pytest.raises(MachineSpecError):
            MachineSpec(name="m", devices=(d, d))

    def test_indexing_and_len(self):
        m = full_node()
        assert len(m) == 8
        assert m[0].is_host

    def test_subset_preserves_order(self):
        m = full_node()
        s = m.subset([5, 0])
        assert s[0].name == "k40-3"
        assert s[1].name == "cpu-0"

    def test_subset_out_of_range(self):
        with pytest.raises(MachineSpecError):
            full_node().subset([99])

    def test_describe_lists_every_device(self):
        text = full_node().describe()
        assert text.count("\n") == 8
        assert "k40-0" in text


class TestMachineFile:
    def test_round_trip(self, tmp_path):
        m = full_node()
        path = tmp_path / "machine.json"
        m.to_file(path)
        m2 = MachineSpec.from_file(path)
        assert m2 == m

    def test_round_trip_preserves_link(self, tmp_path):
        m = full_node()
        path = tmp_path / "machine.json"
        m.to_file(path)
        m2 = MachineSpec.from_file(path)
        assert m2[2].link == m[2].link
        assert m2[0].link is not None and m2[0].link.is_shared

    def test_round_trip_preserves_model_gflops(self, tmp_path):
        m = full_node()
        path = tmp_path / "machine.json"
        m.to_file(path)
        m2 = MachineSpec.from_file(path)
        assert m2[6].model_gflops == m[6].model_gflops

    def test_missing_file_raises_spec_error(self, tmp_path):
        with pytest.raises(MachineSpecError):
            MachineSpec.from_file(tmp_path / "nope.json")

    def test_corrupt_json_raises_spec_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MachineSpecError):
            MachineSpec.from_file(path)

    def test_bad_device_dict_raises(self):
        with pytest.raises(MachineSpecError):
            DeviceSpec.from_dict({"name": "x"})


class TestUnknownKeys:
    """Regression: a typo'd key in a machine file produced a bare
    ``TypeError`` from the dataclass constructor; it now raises
    :class:`MachineSpecError` naming the key and the file."""

    def test_unknown_machine_key_named(self, tmp_path):
        path = tmp_path / "machine.json"
        d = full_node().to_dict()
        d["devcies"] = d.pop("devices")
        import json
        path.write_text(json.dumps(d))
        with pytest.raises(MachineSpecError) as exc:
            MachineSpec.from_file(path)
        assert "devcies" in str(exc.value)
        assert str(path) in str(exc.value)

    def test_unknown_device_key_named(self, tmp_path):
        path = tmp_path / "machine.json"
        d = full_node().to_dict()
        d["devices"][0]["gflops"] = 1.0
        import json
        path.write_text(json.dumps(d))
        with pytest.raises(MachineSpecError) as exc:
            MachineSpec.from_file(path)
        assert "gflops" in str(exc.value)
        assert str(path) in str(exc.value)

    def test_unknown_link_key_named(self, tmp_path):
        path = tmp_path / "machine.json"
        d = full_node().to_dict()
        for dev in d["devices"]:
            if dev.get("link"):
                dev["link"]["bandwith_gbs"] = dev["link"].pop("bandwidth_gbs")
                break
        import json
        path.write_text(json.dumps(d))
        with pytest.raises(MachineSpecError) as exc:
            MachineSpec.from_file(path)
        assert "bandwith_gbs" in str(exc.value)

    def test_unknown_key_without_source_still_typed(self):
        d = full_node().to_dict()
        d["extra"] = 1
        with pytest.raises(MachineSpecError, match="extra"):
            MachineSpec.from_dict(d)

    def test_known_keys_unaffected(self, tmp_path):
        path = tmp_path / "machine.json"
        full_node().to_file(path)
        assert MachineSpec.from_file(path) == full_node()
