"""Shared input-array pool for benchmark kernels.

Grid sweeps build a *fresh* kernel per (kernel, policy) cell because runs
mutate output arrays — but what a cell starts from is a pure function of
``(kernel, n, seed, params)``.  The pool generates each distinct input set
**once** per key and hands every instance the **read-only base arrays
themselves**: ``LoopKernel.__init__`` aliases them as its pristine snapshot
and copies only the arrays a map writes, so a pure ``map(to:)`` input costs
zero bytes per cell and a buggy writer raises ``ValueError`` instead of
corrupting later instances.

The serial reference of a pooled input set rides the same pool
(``_pooled_reference``: the inputs' key plus the parameters the reference
reads, same LRU bound), computed once by the kernel's own ``reference()``
from arrays nothing can write.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

import numpy as np

__all__ = [
    "pooled_inputs",
    "pool_stats",
    "clear_pool",
]

#: Each cache is LRU-evicted beyond this many entries.
_MAX_ENTRIES = 32

_BASE: "OrderedDict[Hashable, dict[str, np.ndarray]]" = OrderedDict()
#: Serial references: the inputs' key + the parameters the reference reads.
_REFS: "OrderedDict[Hashable, dict | float]" = OrderedDict()
_HITS = 0
_MISSES = 0
#: Callers on several threads may build kernels concurrently; the lock
#: keeps the LRU bookkeeping coherent and each entry made once per key.
_LOCK = threading.Lock()


def _shared(cache: OrderedDict, key: Hashable, make: Callable):
    """``cache[key]`` and whether it was already there; on a miss it is
    made, its arrays frozen, and the LRU bound applied (``_LOCK`` held)."""
    hit = key in cache
    if hit:
        cache.move_to_end(key)
    else:
        value = cache[key] = make()
        for arr in value.values() if isinstance(value, dict) else ():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        while len(cache) > _MAX_ENTRIES:
            cache.popitem(last=False)
    return cache[key], hit


def pooled_inputs(
    key: Hashable, make: Callable[[], dict[str, np.ndarray]]
) -> dict[str, np.ndarray]:
    """The cached read-only base arrays for ``key``, generating on miss.

    ``make`` must be deterministic in ``key`` (same key => bit-identical
    arrays); kernel constructors guarantee that by keying on every
    parameter their RNG consumes.  Every caller gets the same arrays:
    whoever needs to write one copies it first (``LoopKernel.__init__``).
    """
    global _HITS, _MISSES
    with _LOCK:
        base, hit = _shared(_BASE, key, make)
        _HITS += hit
        _MISSES += not hit
        return dict(base)


def _pooled_reference(key: Hashable, compute: Callable[[], "dict | float"]):
    """``compute()`` once per ``key`` (see ``LoopKernel._reference``)."""
    with _LOCK:
        return _shared(_REFS, key, compute)[0]


def pool_stats() -> dict[str, int]:
    """Hit/miss/entry counters (for tests and diagnostics)."""
    return {"hits": _HITS, "misses": _MISSES, "entries": len(_BASE)}


def clear_pool() -> None:
    """Drop all cached bases and references and reset counters."""
    global _HITS, _MISSES
    with _LOCK:
        _BASE.clear()
        _REFS.clear()
        _HITS = 0
        _MISSES = 0
