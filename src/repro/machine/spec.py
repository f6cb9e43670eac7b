"""Device and machine specifications, plus the machine description file.

The HOMP runtime "reads from a given machine description file the
specification of host CPU and accelerators" (paper section V).  Here that
file is JSON; :meth:`MachineSpec.from_file` / :meth:`MachineSpec.to_file`
round-trip it.  A :class:`DeviceSpec` carries exactly the parameters the
paper's models consume: sustained FLOP/s (``Perf_dev``), memory bandwidth,
the Hockney link, and whether the device's memory is shared with the host
or discrete (which decides copy-vs-share in the data mapper).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from enum import Enum
from pathlib import Path
from typing import Iterable

from repro.errors import MachineSpecError
from repro.machine.interconnect import Link, SHARED_LINK

__all__ = ["DeviceType", "MemoryKind", "DeviceSpec", "MachineSpec"]


def _check_keys(
    d: dict, allowed: frozenset[str], what: str, source: "str | Path | None"
) -> None:
    """Reject unknown/extra JSON keys with a :class:`MachineSpecError`.

    Machine (and cluster) description files are hand-edited; a typo like
    ``"latencys"`` must name the offending key and the file it came from,
    not surface as a bare ``TypeError`` from a dataclass constructor.
    """
    unknown = sorted(set(d) - allowed)
    if unknown:
        where = f" in {source}" if source is not None else ""
        raise MachineSpecError(
            f"unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(k) for k in unknown)} in {what}{where}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


class DeviceType(str, Enum):
    """Device type filters, as used in ``device(0:*:HOMP_DEVICE_NVGPU)``."""

    HOSTCPU = "HOMP_DEVICE_HOSTCPU"
    NVGPU = "HOMP_DEVICE_NVGPU"
    MIC = "HOMP_DEVICE_MIC"

    @classmethod
    def parse(cls, token: str) -> "DeviceType":
        """Accept both the full ``HOMP_DEVICE_*`` spelling and short names."""
        t = token.strip().upper()
        if not t.startswith("HOMP_DEVICE_"):
            t = "HOMP_DEVICE_" + t
        for member in cls:
            if member.value == t:
                return member
        raise MachineSpecError(f"unknown device type {token!r}")

    @property
    def short(self) -> str:
        return self.value.removeprefix("HOMP_DEVICE_")


class MemoryKind(str, Enum):
    """Memory relationship between a device and the host.

    ``SHARED``   - same address space (host CPUs): data is shared, never copied.
    ``DISCRETE`` - separate device memory (GPU/MIC): data is copied over the link.
    ``UNIFIED``  - CUDA-style unified memory: shared semantics, but pages
                   migrate on demand over the bus (slow; see §V.C).
    """

    SHARED = "shared"
    DISCRETE = "discrete"
    UNIFIED = "unified"


@dataclass(frozen=True, slots=True)
class DeviceSpec:
    """Static description of one computation device.

    ``sustained_gflops`` is the *sustained* double-precision rate the
    analytical models use as ``Perf_dev`` — not the marketing peak.
    ``mem_bandwidth_gbs`` caps memory-bound kernels (roofline).
    ``launch_overhead_s`` is paid once per kernel launch (per chunk), which
    is what makes many tiny chunks expensive for dynamic scheduling.
    """

    name: str
    dev_type: DeviceType
    sustained_gflops: float
    mem_bandwidth_gbs: float
    #: The throughput the *analytical models* believe this device has
    #: (``Perf_dev`` in Table III, obtained "through microbenchmark
    #: profiling" in the paper).  Defaults to the true sustained rate; set
    #: it higher to reproduce the paper's systematic overprediction of KNC
    #: devices, whose DGEMM microbenchmarks sustain far more than generic
    #: offloaded loops.  None means "same as sustained_gflops".
    model_gflops: float | None = None
    link: Link = SHARED_LINK
    memory: MemoryKind = MemoryKind.SHARED
    launch_overhead_s: float = 0.0
    sched_overhead_s: float = 2e-6
    #: One-off per-offload cost of involving this device at all: buffer
    #: allocation, stream/offload-daemon setup.  Deliberately *not* priced
    #: by the analytical models (the paper's models ignore it too) — this
    #: is the unmodeled overhead that makes the CUTOFF heuristic valuable.
    setup_overhead_s: float = 0.0
    #: Devices sharing a PCIe slot (the paper's K80 cards put two K40s
    #: behind one x16 link) name a common group here; their transfers then
    #: contend for one bus in the engine.  None = dedicated link.
    pcie_group: str | None = None
    noise: float = 0.0  # lognormal sigma on per-chunk compute time

    def __post_init__(self) -> None:
        if self.sustained_gflops <= 0:
            raise MachineSpecError(
                f"device {self.name!r}: sustained_gflops must be > 0"
            )
        if self.model_gflops is not None and self.model_gflops <= 0:
            raise MachineSpecError(
                f"device {self.name!r}: model_gflops must be > 0"
            )
        if self.mem_bandwidth_gbs <= 0:
            raise MachineSpecError(
                f"device {self.name!r}: mem_bandwidth_gbs must be > 0"
            )
        if (
            self.launch_overhead_s < 0
            or self.sched_overhead_s < 0
            or self.setup_overhead_s < 0
        ):
            raise MachineSpecError(f"device {self.name!r}: overheads must be >= 0")
        if self.noise < 0:
            raise MachineSpecError(f"device {self.name!r}: noise must be >= 0")
        if self.memory is MemoryKind.SHARED and not self.link.is_shared:
            raise MachineSpecError(
                f"device {self.name!r}: shared-memory device must use SHARED_LINK"
            )

    @property
    def is_host(self) -> bool:
        return self.dev_type is DeviceType.HOSTCPU

    @property
    def modeled_gflops(self) -> float:
        """What the analytical models use as Perf_dev."""
        return self.model_gflops if self.model_gflops is not None else self.sustained_gflops

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dev_type"] = self.dev_type.value
        d["memory"] = self.memory.value
        d["link"] = {
            "latency_s": self.link.latency_s,
            "bandwidth_gbs": None if self.link.is_shared else self.link.bandwidth_gbs,
        }
        return d

    #: JSON keys a device entry may carry (see :func:`_check_keys`).
    FILE_KEYS = frozenset(
        {
            "name", "dev_type", "sustained_gflops", "mem_bandwidth_gbs",
            "model_gflops", "link", "memory", "launch_overhead_s",
            "sched_overhead_s", "setup_overhead_s", "pcie_group", "noise",
        }
    )
    LINK_KEYS = frozenset({"latency_s", "bandwidth_gbs"})

    @classmethod
    def from_dict(
        cls, d: dict, *, source: "str | Path | None" = None
    ) -> "DeviceSpec":
        _check_keys(d, cls.FILE_KEYS, f"device spec {d.get('name')!r}", source)
        link_d = d.get("link") or {}
        _check_keys(
            link_d, cls.LINK_KEYS, f"link of device {d.get('name')!r}", source
        )
        try:
            bw = link_d.get("bandwidth_gbs")
            link = Link(
                latency_s=float(link_d.get("latency_s", 0.0)),
                bandwidth_gbs=float("inf") if bw is None else float(bw),
            )
            return cls(
                name=str(d["name"]),
                dev_type=DeviceType.parse(str(d["dev_type"])),
                sustained_gflops=float(d["sustained_gflops"]),
                mem_bandwidth_gbs=float(d["mem_bandwidth_gbs"]),
                model_gflops=(
                    float(d["model_gflops"])
                    if d.get("model_gflops") is not None
                    else None
                ),
                link=link,
                memory=MemoryKind(d.get("memory", "shared")),
                launch_overhead_s=float(d.get("launch_overhead_s", 0.0)),
                sched_overhead_s=float(d.get("sched_overhead_s", 2e-6)),
                setup_overhead_s=float(d.get("setup_overhead_s", 0.0)),
                pcie_group=d.get("pcie_group"),
                noise=float(d.get("noise", 0.0)),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MachineSpecError(f"bad device spec {d!r}: {exc}") from exc


@dataclass(frozen=True)
class MachineSpec:
    """An ordered collection of devices; index = HOMP device id."""

    name: str
    devices: tuple[DeviceSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.devices:
            raise MachineSpecError(f"machine {self.name!r} has no devices")
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise MachineSpecError(f"machine {self.name!r} has duplicate device names")

    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, devid: int) -> DeviceSpec:
        return self.devices[devid]

    def subset(self, ids: Iterable[int], *, name: str | None = None) -> "MachineSpec":
        """A machine restricted to the given device ids (order preserved)."""
        ids = list(ids)
        for i in ids:
            if not 0 <= i < len(self.devices):
                raise MachineSpecError(f"device id {i} out of range for {self.name!r}")
        return MachineSpec(
            name=name or f"{self.name}[{','.join(map(str, ids))}]",
            devices=tuple(self.devices[i] for i in ids),
        )

    def to_dict(self) -> dict:
        return {"name": self.name, "devices": [d.to_dict() for d in self.devices]}

    #: Top-level JSON keys of a machine description file.
    FILE_KEYS = frozenset({"name", "devices"})

    @classmethod
    def from_dict(
        cls, d: dict, *, source: "str | Path | None" = None
    ) -> "MachineSpec":
        _check_keys(d, cls.FILE_KEYS, "machine spec", source)
        try:
            devices = tuple(
                DeviceSpec.from_dict(x, source=source) for x in d["devices"]
            )
            return cls(name=str(d["name"]), devices=devices)
        except MachineSpecError:
            raise
        except (KeyError, TypeError) as exc:
            where = f" {source}" if source is not None else ""
            raise MachineSpecError(f"bad machine spec{where}: {exc}") from exc

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_file(cls, path: str | Path) -> "MachineSpec":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise MachineSpecError(f"cannot read machine file {path}: {exc}") from exc
        return cls.from_dict(data, source=path)

    def describe(self) -> str:
        """One line per device, for logs and example output."""
        lines = [f"machine {self.name!r} ({len(self)} devices)"]
        for i, d in enumerate(self.devices):
            lines.append(
                f"  [{i}] {d.name}: {d.dev_type.short}, "
                f"{d.sustained_gflops:.0f} GFLOP/s, "
                f"{d.mem_bandwidth_gbs:.0f} GB/s mem, {d.memory.value} memory"
            )
        return "\n".join(lines)
