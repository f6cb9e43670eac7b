"""Parser for the extended ``device(...)`` clause (paper §III.1).

Grammar:  ``device_specifier[, device_specifier]...`` where each specifier
is ``initial_devid[:nums][:dev_type_filter]``:

* ``nums`` is an integer count or ``*`` (all devices from the start id),
  defaulting to 1;
* ``dev_type_filter`` keeps only devices of that type from the expansion.

Legal examples from the paper: ``0:*`` (all devices), ``0, 2, 3, 5``,
``0:2, 4:2`` (-> 0,1,4,5), ``0:*:HOMP_DEVICE_NVGPU`` (all NVIDIA GPUs).
A bare ``*`` (as used in Fig. 2's ``device (*)``) is accepted as a synonym
for ``0:*``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DirectiveSyntaxError
from repro.lang.map_clause import _clause_body
from repro.machine.spec import DeviceType, MachineSpec

__all__ = ["DeviceSelector", "parse_device_clause"]


@dataclass(frozen=True)
class DeviceSelector:
    """One ``initial_devid[:nums][:dev_type_filter]`` specifier."""

    initial: int
    count: int | None  # None means '*'
    type_filter: DeviceType | None

    def expand(self, machine: MachineSpec) -> list[int]:
        """Device ids this specifier selects on ``machine``."""
        if self.initial < 0 or self.initial >= len(machine):
            raise DirectiveSyntaxError(
                f"device id {self.initial} out of range for "
                f"machine with {len(machine)} devices"
            )
        if self.count is None:
            stop = len(machine)
        else:
            stop = self.initial + self.count
            if stop > len(machine):
                raise DirectiveSyntaxError(
                    f"device range {self.initial}:{self.count} exceeds "
                    f"machine size {len(machine)}"
                )
        ids = list(range(self.initial, stop))
        if self.type_filter is not None:
            ids = [i for i in ids if machine[i].dev_type is self.type_filter]
        return ids


def _parse_specifier(token: str) -> DeviceSelector:
    parts = [p.strip() for p in token.split(":")]
    if not 1 <= len(parts) <= 3 or not parts[0]:
        raise DirectiveSyntaxError("bad device specifier", text=token)
    if parts[0] == "*":
        # 'device(*)' shorthand for all devices
        if len(parts) > 1:
            raise DirectiveSyntaxError("bad device specifier", text=token)
        return DeviceSelector(initial=0, count=None, type_filter=None)
    try:
        initial = int(parts[0])
    except ValueError:
        raise DirectiveSyntaxError("device id must be an integer", text=token) from None

    count: int | None = 1
    type_filter: DeviceType | None = None
    if len(parts) >= 2:
        if parts[1] == "*":
            count = None
        else:
            try:
                count = int(parts[1])
            except ValueError:
                raise DirectiveSyntaxError(
                    "device count must be an integer or '*'", text=token
                ) from None
            if count < 1:
                raise DirectiveSyntaxError("device count must be >= 1", text=token)
    if len(parts) == 3:
        try:
            type_filter = DeviceType.parse(parts[2])
        except Exception:
            raise DirectiveSyntaxError("unknown device type filter", text=token) from None
    return DeviceSelector(initial=initial, count=count, type_filter=type_filter)


def parse_device_clause(text: str, machine: MachineSpec) -> list[int]:
    """Expand a full ``device(...)`` argument into unique device ids, in
    first-mention order."""
    body = _clause_body(text, "device")
    if not body.strip():
        raise DirectiveSyntaxError("empty device clause", text=text)
    ids: list[int] = []
    for token in body.split(","):
        token = token.strip()
        if not token:
            raise DirectiveSyntaxError("empty device specifier", text=text)
        ids.extend(_parse_specifier(token).expand(machine))
    # Preserve first-mention order, drop duplicates.
    seen: set[int] = set()
    out: list[int] = []
    for i in ids:
        if i not in seen:
            seen.add(i)
            out.append(i)
    if not out:
        raise DirectiveSyntaxError(
            "device clause selects no devices on this machine", text=text
        )
    return out
