"""repro.ir — the typed offload IR (ROADMAP item 5b).

One front-end path: ``parse_directive -> lower -> verify -> passes ->
execute``.  Directives lower (:mod:`repro.ir.lower`) into an immutable
:class:`Program` of typed ops (:mod:`repro.ir.ops`), the verifier
(:mod:`repro.ir.verify`) checks it, the rewrite passes
(:mod:`repro.ir.passes`) normalise maps, derive halo exchanges,
fuse adjacent offloads and hoist stream regions — reaching every op
kind's members through ``op.offloads`` / ``op.with_offloads`` — and
:meth:`repro.runtime.runtime.HompRuntime.run_program` executes the
result.  See ``docs/IR.md`` for the op vocabulary, verifier rules and
fusion legality conditions.
"""

from repro.ir.lower import data_region, decl_for, from_directive, from_directives
from repro.ir.ops import (
    DataDecl,
    FusedOffloadOp,
    HaloLeg,
    HaloOp,
    MapOp,
    OffloadOp,
    Program,
    ReduceOp,
    StreamOp,
)
from repro.ir.passes import (
    DEFAULT_PIPELINE,
    PASSES,
    derive_halo,
    fuse_adjacent_offloads,
    normalize_maps,
    run_passes,
    stream_pipeline,
)
from repro.ir.verify import verify_program

__all__ = [
    "DataDecl",
    "MapOp",
    "HaloLeg",
    "HaloOp",
    "ReduceOp",
    "OffloadOp",
    "FusedOffloadOp",
    "StreamOp",
    "Program",
    "from_directive",
    "from_directives",
    "data_region",
    "decl_for",
    "verify_program",
    "run_passes",
    "normalize_maps",
    "derive_halo",
    "fuse_adjacent_offloads",
    "stream_pipeline",
    "DEFAULT_PIPELINE",
    "PASSES",
]
