"""Reusable engine pool for the offload service.

Engines are sequentially reusable but never concurrently shareable:
:class:`~repro.engine.core.EngineBase` guards ``run()`` with a run gate
that raises :class:`~repro.errors.EngineBusyError` on overlap.
The pool turns that contract into reuse: up to ``size`` leases are held
at once, each on an engine held *exclusively* for the duration of the
lease, and engines are returned to a free list instead of being rebuilt
per job (engine construction is cheap, but reuse keeps the pool's
concurrency accounting honest, the way a real device queue would be
held open).

Free engines are keyed by device selection because an engine is bound
to one submachine: the pool builds each engine over
``machine.subset(ids)`` — the *same* path ``parallel_for`` uses — so a
pooled run's machine (and therefore its result bytes) is identical to a
direct run's.  Per-run options (seed, numeric execution, fault plans,
tracers) are applied through the engine's ``configured()`` lease by
``parallel_for(engine=...)``, never baked into the pooled instance.

The pool is an asyncio object: ``acquire`` awaits a semaphore slot, and
the engine then runs on the event loop like everything else.
"""

from __future__ import annotations

import asyncio

from repro.engine.core import make_backend
from repro.engine.simulator import OffloadEngine
from repro.machine.spec import MachineSpec
from repro.service.admission import check_count

__all__ = ["EnginePool"]


class EnginePool:
    """At most ``size`` concurrently leased engines over one machine.

    ``backend`` is the :class:`~repro.engine.simulator.OffloadEngine`
    subclass every engine of the pool is built from.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        size: int = 4,
        backend: "type[OffloadEngine]" = OffloadEngine,
    ):
        check_count("pool size", size)
        self.machine = machine
        self.size = size
        self.backend = backend
        self._sem = asyncio.Semaphore(size)
        self._free: dict[tuple[int, ...], list[OffloadEngine]] = {}
        #: Engines ever constructed / leases ever granted / current and
        #: high-water concurrent leases (for tests and pool metrics).
        self.created = 0
        self.leases = 0
        self.active = 0
        self.max_active = 0

    async def acquire(self, ids: "tuple[int, ...]") -> OffloadEngine:
        """Lease an engine over devices ``ids``; blocks on pool pressure.

        The returned engine is exclusively the caller's until it is
        handed back through :meth:`release` — the pool itself is what
        makes :class:`~repro.errors.EngineBusyError` unreachable.  An
        engine that cannot be constructed raises here and holds no slot.
        """
        await self._sem.acquire()
        free = self._free.get(tuple(ids))
        if free:
            engine = free.pop()
        else:
            try:
                engine = make_backend(
                    self.backend, self.machine.subset(list(ids))
                )
            except BaseException:
                self._sem.release()
                raise
            self.created += 1
        self.leases += 1
        self.active += 1
        self.max_active = max(self.max_active, self.active)
        return engine

    def release(self, ids: "tuple[int, ...]", engine: OffloadEngine) -> None:
        """Return a leased engine to the free list and free its slot."""
        self._free.setdefault(tuple(ids), []).append(engine)
        self.active -= 1
        self._sem.release()
