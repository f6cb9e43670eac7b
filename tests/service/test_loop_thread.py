"""The service runs every job on the event-loop thread.

The engines are pure Python under the GIL, so the service hands no job to
a worker thread: kernel factories — called as a solo job or a coalesced
group starts — run on the thread that runs the loop.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service import OffloadJob, OffloadService, WorkloadTemplate


class RecordingFactory:
    """A fingerprintable (so coalescible) kernel factory that records the
    thread it was called on."""

    def __init__(self):
        self.template = WorkloadTemplate("axpy", 512, seed=1)
        self.idents: list[int] = []

    def fingerprint(self):
        return self.template.fingerprint()

    def __call__(self):
        self.idents.append(threading.get_ident())
        return self.template()


def serve(machine, policies):
    factory = RecordingFactory()

    async def main():
        async with OffloadService(
            machine, pool_size=1,
        ) as svc:
            handles = [await svc.submit(OffloadJob(factory, policy=policy))
                       for policy in policies]
            results = [await h for h in handles]
            names = [t.name for t in threading.enumerate()]
        return threading.get_ident(), results, names

    loop_ident, results, names = asyncio.run(main())
    assert all(r.ok for r in results), [r.error for r in results]
    return loop_ident, factory.idents, results, names


@pytest.mark.parametrize("policies, batch_size", [
    (["SCHED_DYNAMIC"], 1),
    (["BLOCK", "MODEL_1_AUTO"], 2),
], ids=["solo", "coalesced"])
def test_jobs_run_on_the_loop_thread(gpu4, policies, batch_size):
    loop_ident, idents, results, names = serve(gpu4, policies)
    assert idents and set(idents) == {loop_ident}
    assert [r.batch_size for r in results] == [batch_size] * len(policies)
    assert not [n for n in names if n.startswith("repro-service")], names
