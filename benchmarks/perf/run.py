#!/usr/bin/env python3
"""Host-time perf ledger for the HOMP reproduction: the one benchmark.

Driver form (the contract in BENCHMARK.json)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exit status is non-zero when the run could not be made
(and nothing is printed as a result then); a correctness failure is
reported as ``"correct": false`` and a non-zero exit.

Ledger form::

    python3 benchmarks/perf/run.py [--trace] [--out A.json]   all 8 workloads
    python3 benchmarks/perf/run.py --compare A.json B.json     parent vs change
    python3 benchmarks/perf/run.py --selfcheck                 harness health
    python3 benchmarks/perf/run.py --update-expected           re-pin digests

Each workload runs in its own fresh subprocesses (``child.py``), with
BLAS/OpenMP pinned to one thread, the sweep cache off and bytecode
writing off; nothing is written anywhere except the ``--out`` /
``--trace-out`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ beside the harness
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from spec import E2E_UNITS, LAYER_UNITS  # noqa: E402

#: Environment switches that change what the program under test does; a
#: ledger row measured with one of them set is not comparable.
REFUSED_ENV = ("REPRO_OBS", "REPRO_FAULTS", "REPRO_BENCH_SCALE", "REPRO_BENCH_WORKERS")
THREAD_PINS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


class ChildFailed(RuntimeError):
    pass


def median_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_PINS:
        env[var] = "1"
    env["REPRO_BENCH_CACHE"] = "off"
    # With the cache off nothing is written; should a later change to the
    # program write anyway, it lands in the system temp dir, not the repo.
    env["REPRO_BENCH_CACHE_DIR"] = os.path.join(
        tempfile.gettempdir(), "repro-perf-ledger-cache"
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env: dict[str, str], workload: str, seed: int, *flags) -> dict:
    """Run child.py once and return the JSON object it printed last."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--t0", repr(time.monotonic()), *map(str, flags),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: no result within {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise ChildFailed(
            f"{workload}: child exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{workload}: child printed no result") from None


def traced(env, workload: str, seed: int, seconds: float,
           trace_out: str | None = None) -> dict:
    """The traced pass: one process, reports the per-layer metrics."""
    plain, wrapped = spec.traced_laps(seconds)
    flags = ["--laps", plain, "--traced-laps", wrapped]
    if trace_out:
        flags += ["--trace-out", trace_out]
    return spawn(env, workload, seed, *flags)


def end_to_end(env, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end pass: ``PROCESSES_PER_RUN`` fresh processes, each
    setting up, warming up and running ``spec.timed_laps(seconds)`` timed
    laps, folded into one result.  ``ops_per_s`` and ``op_p50_ms`` come
    from the best of that fixed number of laps (README "Why the best
    lap"); ``setup_s`` and ``peak_rss_mb`` are the median over the
    processes.  ``ungated`` holds what the pass also prints but no bound
    applies to: the exact simulated time and the median-lap forms.
    """
    laps = spec.timed_laps(seconds)
    runs = [
        spawn(env, workload, seed, "--laps", laps)
        for _ in range(spec.PROCESSES_PER_RUN)
    ]
    failures = [f for r in runs for f in r["failures"]]
    if len({r["digest"] for r in runs}) != 1:
        failures.append("processes of one run simulated differently")
    ops = runs[0]["ops_per_lap"]
    walls = [w for r in runs for w in r["lap_wall_s"]]
    lap_samples = [lap for r in runs for lap in r["lap_samples_s"]]
    lap_p50_ms = [median_ms(lap) for lap in lap_samples]
    pooled = [v for lap in lap_samples for v in lap]
    return {
        "e2e": {
            "ops_per_s": ops / min(walls),
            "op_p50_ms": min(lap_p50_ms),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        },
        "ungated": {
            "sim_time_ms": runs[0]["sim_time_ms"],
            "load.ops_per_s_median_lap": ops / statistics.median(walls),
            "load.op_p50_ms_pooled": median_ms(pooled),
        },
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": not failures,
        "failures": failures,
        "digest": runs[0]["digest"],
        "ops_per_lap": ops,
        "lap_wall_s": walls,
        "lap_p50_ms": lap_p50_ms,
        "setup_samples_s": [r["setup_s"] for r in runs],
        "samples": len(pooled),
    }


def contract_line(out: dict, trace: bool) -> str:
    values, units = (out["layers"], LAYER_UNITS) if trace else (out["e2e"], E2E_UNITS)
    return json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    })


def print_metrics(workload: str, values: dict, units: dict) -> None:
    for name, value in values.items():
        print(f"{workload:16s} {name:36s} {value:14.6g} {units[name]}")


def print_end_to_end(workload: str, out: dict) -> None:
    """What an untraced pass prints: the gated end-to-end metrics, the
    ungated ones (units from the per-layer list) and the op counts."""
    print_metrics(workload, out["e2e"], E2E_UNITS)
    print_metrics(workload, out["ungated"], LAYER_UNITS)
    print(f"{workload:16s} {'ops_attempted':36s} {out['attempted']:14d} count")
    print(f"{workload:16s} {'ops_failed':36s} {out['failed']:14d} count")


# -- ledger form -------------------------------------------------------------


def header(seed: int, seconds: float) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    plain, wrapped = spec.traced_laps(seconds)
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version or "unknown",
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "seconds": seconds,
        "processes_per_run": spec.PROCESSES_PER_RUN,
        "laps_per_process": {"warm_up": 1, "timed": spec.timed_laps(seconds)},
        "traced_pass_laps": {"warm_up": 1, "plain": plain, "traced": wrapped},
        "claim": None,
    }


def run_all(env, args) -> int:
    head = header(args.seed, args.seconds)
    print("# " + json.dumps(head))
    ledger = {"header": head, "workloads": {}}
    ok = True
    for name in spec.WORKLOADS:
        entry = end_to_end(env, name, args.seed, args.seconds)
        print_end_to_end(name, entry)
        if args.trace:
            trace_out = f"{args.trace_out}.{name}.jsonl" if args.trace_out else None
            layers = traced(env, name, args.seed, args.seconds, trace_out)
            print_metrics(name, layers["layers"], LAYER_UNITS)
            entry["layers"] = layers["layers"]
            entry["correct"] = entry["correct"] and layers["correct"]
            entry["failures"] += layers["failures"]
        if not entry["correct"]:
            ok = False
            print(f"{name}: INCORRECT {entry['failures']}", file=sys.stderr)
        ledger["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    return 0 if ok else 1


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _per_lap(entry: dict, metric: str) -> list[float]:
    """The values one side's spread is taken over."""
    if metric == "ops_per_s":
        return [entry["ops_per_lap"] / s for s in entry["lap_wall_s"]]
    if metric == "op_p50_ms":
        return entry["lap_p50_ms"]
    if metric == "setup_s":
        return entry["setup_samples_s"]
    return [entry["e2e"][metric]]


def _exact_row(name: str, metric: str, va, vb, better: str) -> bool:
    """Print one bit-for-bit row; True when the change is worse."""
    if va == vb:
        verdict = "same"
    else:
        verdict = "better" if (vb < va) == (better == "lower") else "worse"
    print(f"{name:16s} {metric:34s} {va:12.6g} {vb:12.6g} "
          f"{'bit-for-bit':>14s} {'0':>6s}  {verdict}")
    return verdict == "worse"


def compare(path_a: str, path_b: str) -> int:
    """Parent (A) against change (B), one row per (metric, workload).

    Timed end-to-end metrics get a verdict against the benchmark's bound:
    ``unresolved`` when the two sides' per-lap quartile ranges overlap
    *and* either side's own lap spread is wider than the bound; else
    ``worse``/``better`` when the reported values differ by more than the
    bound; else ``same``.  Exact-repeat metrics compare bit for bit.
    Per-layer rows end with the end-to-end metric they should move.
    """
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    print(f"parent {a['header']['git_sha'][:12]} seed {a['header']['seed']}  vs  "
          f"change {b['header']['git_sha'][:12]} seed {b['header']['seed']}")
    print(f"{'workload':16s} {'metric':34s} {'parent':>12s} {'change':>12s} "
          f"{'change/parent':>14s} {'bound':>6s}  verdict")
    worse = 0
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb:
            continue
        for m in spec.END_TO_END:
            metric, bound = m["name"], m["bound"]
            va, vb = wa["e2e"][metric], wb["e2e"][metric]
            (a1, a3), (b1, b3) = (
                _quartiles(_per_lap(w, metric)) for w in (wa, wb)
            )
            overlap = a1 <= b3 and b1 <= a3
            spread = max((a3 - a1) / va, (b3 - b1) / vb)
            rel = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            if overlap and spread > bound:
                verdict = "unresolved"
            elif rel > bound:
                verdict = "worse"
                worse += 1
            elif rel < -bound:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{name:16s} {metric:34s} {va:12.5g} {vb:12.5g} "
                  f"{vb / va:8.4f}x of {va:<.4g} {bound:6.2f}  {verdict}")
        for side in ("ungated", "layers"):
            for metric, va in wa.get(side, {}).items():
                vb = wb.get(side, {}).get(metric)
                if vb is None or (side == "layers" and metric in wa["ungated"]):
                    continue  # the untraced pass measured it over more laps
                if metric in spec.EXACT:
                    worse += _exact_row(name, metric, va, vb, spec.LAYER_BETTER[metric])
                elif va or vb:
                    ratio = f"{vb / va:8.4f}x of {va:<.4g}" if va else "      new"
                    print(f"{name:16s} {metric:34s} {va:12.5g} {vb:12.5g} {ratio:>22s}"
                          f"  -> {spec.MOVES.get(metric, '?')}")
    return 1 if worse else 0


def selfcheck(env) -> int:
    """Every workload at 1/20 op count, one lap; see README 'Self-check'."""
    problems = [f"bad metric name {m!r}"
                for m in (*LAYER_UNITS, *E2E_UNITS) if not NAME_RE.match(m)]
    small = ("--scale", 0.05, "--laps", 1)
    for name in spec.WORKLOADS:
        mine = []
        checked = spawn(env, name, spec.DEFAULT_SEED, "--selfcheck", *small)
        mine += checked["problems"]
        counts = []
        for _ in range(2):
            out = spawn(env, name, spec.DEFAULT_SEED, "--traced-laps", 1, *small)
            json.loads(contract_line(out, True))
            if not out["correct"]:
                mine.append(f"incorrect at 1/20 scale: {out['failures']}")
            exact = spec.EXACT - (
                {m for m in spec.EXACT if m.endswith("_per_op")}
                if name in spec.THREADED else set()
            )
            counts.append({m: out["layers"][m] for m in sorted(exact)})
        if counts[0] != counts[1]:
            mine.append("exact metrics differ between two runs: "
                        f"{[m for m in counts[0] if counts[0][m] != counts[1][m]]}")
        print(f"selfcheck {name}: {'FAILED' if mine else 'ok'}")
        problems += [f"{name}: {p}" for p in mine]
    for p in problems:
        print("selfcheck problem:", p, file=sys.stderr)
    return 1 if problems else 0


def update_expected(env) -> int:
    (HERE / "expected").mkdir(exist_ok=True)
    for name in spec.WORKLOADS:
        digests = {
            str(seed): spawn(env, name, seed, "--laps", 1)["digest"]
            for seed in spec.EXPECTED_SEEDS
        }
        path = HERE / "expected" / f"{name}.json"
        path.write_text(json.dumps(digests, indent=1) + "\n")
        print(f"{path.relative_to(ROOT)}: {digests}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    ap.add_argument("--trace-out", default=None, help="spans as JSONL (ledger form: a prefix)")
    ap.add_argument("--out", default=None, help="write the ledger JSON here")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--update-expected", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    set_vars = [v for v in REFUSED_ENV if os.environ.get(v)]
    if set_vars:
        print(f"refusing to measure with {', '.join(set_vars)} set", file=sys.stderr)
        return 2

    env = child_env()
    try:
        if args.selfcheck:
            return selfcheck(env)
        if args.update_expected:
            return update_expected(env)
        if args.workload is None:
            return run_all(env, args)
        if args.trace:
            out = traced(env, args.workload, args.seed, args.seconds, args.trace_out)
            print_metrics(args.workload, out["layers"], LAYER_UNITS)
        else:
            out = end_to_end(env, args.workload, args.seed, args.seconds)
            print_end_to_end(args.workload, out)
        for failure in out["failures"]:
            print("FAILED:", failure, file=sys.stderr)
        print(contract_line(out, bool(args.trace)))
        return 0 if out["correct"] else 1
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
