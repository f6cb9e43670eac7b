"""Sweep-result cache: fingerprinted reuse of (machine, workload, policy) cells.

Simulated offloads are deterministic functions of their full configuration,
so a grid cell's :class:`~repro.engine.trace.OffloadResult` can be reused
whenever the configuration fingerprint matches.  The fingerprint covers
everything the result depends on:

* the machine description (``MachineSpec.to_dict()``, every device field),
* the workload identity — name, bench scale, RNG seed,
* the scheduling policy and CUTOFF ratio,
* the engine flags every keyed cell runs under (numeric execution, no
  offload serialisation, double buffering, no event recording) and the
  runtime seed,
* the repro version (a code release invalidates old entries).

Two layers: an in-process dictionary (hit => deep copy, so callers may
mutate what they get back) and an optional on-disk pickle store under
``.bench_cache/`` that survives across processes and pytest sessions.
``REPRO_BENCH_CACHE`` selects the mode: ``on`` (default, both layers),
``mem`` (in-process only), ``off`` (no caching at all);
``REPRO_BENCH_CACHE_DIR`` relocates the disk layer.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import __version__
from repro.engine.trace import OffloadResult
from repro.faults.plan import FaultPlan, faults_enabled
from repro.faults.policy import ResiliencePolicy
from repro.machine.spec import MachineSpec

__all__ = [
    "CACHE_ENV",
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "SweepCache",
    "cache_mode",
    "result_key",
    "cell_key",
    "get_cache",
    "reset_cache",
]

CACHE_ENV = "REPRO_BENCH_CACHE"
CACHE_DIR_ENV = "REPRO_BENCH_CACHE_DIR"
DEFAULT_CACHE_DIR = ".bench_cache"


def cache_mode() -> str:
    """Resolved cache mode: ``"on"``, ``"mem"`` or ``"off"``."""
    v = os.environ.get(CACHE_ENV, "on").strip().lower()
    if v in ("off", "0", "false", "no"):
        return "off"
    if v in ("mem", "memory"):
        return "mem"
    return "on"


def result_key(
    machine: MachineSpec,
    workload_fp: Mapping[str, Any],
    policy: str,
    *,
    cutoff_ratio: float = 0.0,
    seed: int = 0,
    verify: bool = True,
    fault_plan: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> str:
    """Stable hex fingerprint of one sweep cell.

    ``workload_fp`` is the workload's identity mapping (name, scale, seed —
    see ``WorkloadFactory.fingerprint``).  Any change to any field of the
    machine spec, the workload identity, the policy, the cutoff, the seed,
    or the fault configuration yields a different key.
    A cell run under a fault plan is a different experiment from the
    fault-free cell, so the plan's canonical dict (and the resilience
    policy's, when set) joins the payload.
    """
    payload = {
        "version": __version__,
        "machine": machine.to_dict(),
        "workload": dict(workload_fp),
        "policy": str(policy),
        "cutoff_ratio": float(cutoff_ratio),
        "seed": int(seed),
        "verify": bool(verify),
        # What every keyed cell runs under; one that deviates stays unkeyed.
        "engine": {
            "execute_numerically": True,
            "serialize_offload": False,
            "double_buffer": True,
            "record_events": False,
        },
    }
    # A plan only shapes the result while injection is live: an empty plan,
    # or any plan under REPRO_FAULTS=off, keys identically to fault-free.
    if fault_plan is not None and not fault_plan.empty and faults_enabled():
        payload["faults"] = {
            "plan": fault_plan.to_dict(),
            "resilience": (
                resilience.to_dict() if resilience is not None else None
            ),
        }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_key(
    cache: "SweepCache",
    machine: MachineSpec,
    factory: Callable[[], Any],
    policy: Any,
    *,
    cutoff_ratio: "float | str" = 0.0,
    seed: int = 0,
    verify: bool = True,
    fault_plan: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> str | None:
    """The one cell rule: a cell's ``result_key``, or None if it always runs.

    Keyed when, in this order: the cache is enabled (otherwise nothing is
    fingerprinted or hashed), the factory exposes a ``fingerprint()``
    identity (a lambda could close over anything), the policy is a
    notation string, and the cutoff is a fraction (``"auto"`` resolves
    against the devices at run time).
    ``run_cell``, ``run_grid`` and the offload service all ask here.
    """
    if not cache.enabled:
        return None
    fingerprint = getattr(factory, "fingerprint", None)
    if fingerprint is None or not isinstance(policy, str) or cutoff_ratio == "auto":
        return None
    return result_key(
        machine, fingerprint(), policy,
        cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
        fault_plan=fault_plan, resilience=resilience,
    )


@dataclass
class CacheStats:
    """Counters for one :class:`SweepCache` instance."""

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def hits(self) -> int:
        return self.mem_hits + self.disk_hits

    def to_dict(self) -> dict[str, int]:
        """Flat counters, e.g. for the obs metrics export (sorted keys)."""
        return {
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "mem_hits": self.mem_hits,
            "misses": self.misses,
            "puts": self.puts,
        }


@dataclass
class SweepCache:
    """Two-layer (in-process + on-disk) store of ``OffloadResult``s."""

    directory: Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _mem: dict[str, OffloadResult] = field(default_factory=dict)

    def _dir(self) -> Path | None:
        """Disk layer root, or None when the mode keeps the cache in memory."""
        if cache_mode() != "on":
            return None
        if self.directory is not None:
            return self.directory
        return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))

    def _path(self, key: str) -> Path | None:
        root = self._dir()
        if root is None:
            return None
        return root / key[:2] / f"{key}.pkl"

    @property
    def enabled(self) -> bool:
        return cache_mode() != "off"

    def get(self, key: str) -> OffloadResult | None:
        """Cached result for ``key``, or None.

        Memory hits return a deep copy, so callers may freely mutate the
        result they receive; disk hits are fresh unpickles (and are
        promoted into the memory layer).  Unreadable disk entries count as
        misses.
        """
        if not self.enabled:
            return None
        hit = self._mem.get(key)
        if hit is not None:
            self.stats.mem_hits += 1
            return copy.deepcopy(hit)
        path = self._path(key)
        if path is not None and path.is_file():
            try:
                with path.open("rb") as fh:
                    result = pickle.load(fh)
            except Exception:
                self.stats.misses += 1
                return None
            if isinstance(result, OffloadResult):
                self.stats.disk_hits += 1
                self._mem[key] = copy.deepcopy(result)
                return result
        self.stats.misses += 1
        return None

    def put(self, key: str, result: OffloadResult) -> None:
        """Store ``result`` in every active layer (atomic disk write)."""
        if not self.enabled:
            return
        self.stats.puts += 1
        self._mem[key] = copy.deepcopy(result)
        path = self._path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full disk never fails the sweep itself.
            pass

    def clear(self, *, disk: bool = False) -> None:
        """Drop the memory layer (and optionally the disk layer) and reset stats."""
        self._mem.clear()
        self.stats = CacheStats()
        if disk:
            root = self._dir()
            if root is not None and root.is_dir():
                for p in root.glob("*/*.pkl"):
                    try:
                        p.unlink()
                    except OSError:
                        pass


_CACHE = SweepCache()


def get_cache() -> SweepCache:
    """The process-wide sweep cache."""
    return _CACHE


def reset_cache(*, disk: bool = False) -> None:
    """Clear the process-wide cache (tests, or after editing engine code)."""
    _CACHE.clear(disk=disk)
