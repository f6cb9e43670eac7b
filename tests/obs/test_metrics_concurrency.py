"""MetricsRegistry under concurrent hammering: exact totals, no deadlock.

A registry may be fed from several threads at once, so every shorthand
(`inc`/`set_gauge`/`observe`) must be thread-safe.  The assertions are
exact: lost updates, not just crashes, fail the test.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import MetricsRegistry

THREADS = 8
ROUNDS = 2000


def hammer(fn):
    """Run ``fn(worker_index)`` from THREADS threads, starting together."""
    barrier = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def work(i: int) -> None:
        barrier.wait()
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


def test_concurrent_counter_increments_are_exact():
    reg = MetricsRegistry()

    def fn(i: int) -> None:
        for _ in range(ROUNDS):
            reg.inc("hits")
            reg.inc("hits", 2.0, tenant=f"t{i % 2}")

    hammer(fn)
    assert reg.counter_value("hits") == float(THREADS * ROUNDS)
    per_tenant = sum(
        reg.counter_value("hits", tenant=f"t{k}") for k in range(2)
    )
    assert per_tenant == float(THREADS * ROUNDS * 2)


def test_concurrent_histogram_observations_are_exact():
    reg = MetricsRegistry()
    buckets = (1.0, 2.0, 4.0)

    def fn(i: int) -> None:
        for r in range(ROUNDS):
            reg.observe("lat", float(r % 5), buckets=buckets)

    hammer(fn)
    hist = reg.histogram("lat", buckets=buckets)
    assert hist.count == THREADS * ROUNDS
    assert sum(hist.counts) + hist.overflow == THREADS * ROUNDS
    # values 0..4 uniformly: 0,1 <= 1.0; 2 <= 2.0; 3,4 <= 4.0
    per_value = THREADS * ROUNDS // 5
    assert hist.counts[0] == 2 * per_value
    assert hist.counts[1] == per_value
    assert hist.counts[2] == 2 * per_value
    assert hist.overflow == 0


def test_concurrent_gauge_sets_land_on_a_written_value():
    reg = MetricsRegistry()

    def fn(i: int) -> None:
        for _ in range(ROUNDS):
            reg.set_gauge("depth", float(i))

    hammer(fn)
    assert reg.gauge("depth").value in {float(i) for i in range(THREADS)}
