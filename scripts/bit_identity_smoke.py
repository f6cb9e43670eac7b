"""Bit-identity smoke check for the virtual-time execution core.

Runs one fig5 cell (gpu4 node, paper axpy workload at a pinned reduced
scale, SCHED_DYNAMIC) on the simulator and compares the BLAKE2b checksum
of the pickled :class:`~repro.engine.trace.OffloadResult` against the
committed pre-refactor fixture.  Any change to the virtual-time engine
that perturbs the result — stage times, trace buckets, meta layout,
reduction value — fails this check.

Usage::

    PYTHONPATH=src python scripts/bit_identity_smoke.py            # compare
    PYTHONPATH=src python scripts/bit_identity_smoke.py --update   # rewrite

The fixture lives at ``tests/engine/fixtures/fig5_cell.blake2b`` and must
only be regenerated when a behaviour change is intended and documented.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from pathlib import Path

from repro.kernels.registry import paper_workload
from repro.machine.presets import gpu4_node
from repro.runtime.runtime import HompRuntime

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "tests" / "engine" / "fixtures" / "fig5_cell.blake2b"
)


def cell_checksum(warm_region: bool = False) -> str:
    """Checksum of the pinned fig5 cell's pickled OffloadResult.

    With ``warm_region=True`` the same runtime first opens, uses, and
    drains a target-data region — the cell that follows must still match
    the fixture (residency state must not leak into region-free runs).
    """
    rt = HompRuntime(gpu4_node(), seed=0)
    if warm_region:
        from repro.memory.space import MapDirection
        from repro.runtime.data_env import TargetDataRegion

        warm = paper_workload("axpy", scale=0.05, seed=0)
        maps = {
            name: (arr, MapDirection.TOFROM)
            for name, arr in warm.arrays.items()
        }
        with TargetDataRegion(
            runtime=rt, maps=maps, partitioned=frozenset(maps)
        ) as region:
            region.parallel_for(warm, schedule="SCHED_DYNAMIC")
        assert rt.ledger.empty, "region did not drain the residency ledger"
    kernel = paper_workload("axpy", scale=0.05, seed=0)
    result = rt.parallel_for(kernel, schedule="SCHED_DYNAMIC", cutoff_ratio=0.0)
    blob = pickle.dumps(result, protocol=4)
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def main(argv: list[str]) -> int:
    got = cell_checksum()
    if "--update" in argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(got + "\n")
        print(f"fixture updated: {got}")
        return 0
    if not FIXTURE.exists():
        print(f"missing fixture {FIXTURE}; run with --update", file=sys.stderr)
        return 2
    want = FIXTURE.read_text().strip()
    if got != want:
        print(
            "bit-identity check FAILED:\n"
            f"  expected {want}\n"
            f"  got      {got}\n"
            "The virtual-time engine no longer reproduces the committed "
            "fig5 cell. If the change is intentional, regenerate with "
            "--update and explain why in the PR.",
            file=sys.stderr,
        )
        return 1
    after_region = cell_checksum(warm_region=True)
    if after_region != want:
        print(
            "bit-identity check FAILED after a drained target-data region:\n"
            f"  expected {want}\n"
            f"  got      {after_region}\n"
            "Residency-ledger state leaked into a region-free offload.",
            file=sys.stderr,
        )
        return 1
    print(f"bit-identity OK ({got})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
