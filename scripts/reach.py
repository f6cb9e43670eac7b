#!/usr/bin/env python3
"""Which functions of ``src/repro`` a fixed set of entry points reaches.

A function that only tests call is either missing a caller or dead code.
This script measures it: it extracts a revision with ``git archive`` into
a temporary directory, so no committed result file is touched, and runs
the entry set there under a call recorder.  The recorder is a
``sitecustomize`` module put first on ``PYTHONPATH``: it installs
``sys.setprofile`` (and ``threading.setprofile``) in every Python process
the entries start, child processes included, and each process writes the
code objects it saw when it exits.  The entry set is fixed:

* every ``examples/*.py``;
* ``scripts/bit_identity_smoke.py`` and ``scripts/ci_smoke.py``, which CI
  runs;
* ``pytest benchmarks --ignore=benchmarks/perf --benchmark-disable``;
* ``benchmarks/perf/run.py --selfcheck``;
* ``python -m repro.bench fig5 fig6 fig7 fig8 fig9 table5``.

Every ``def`` under ``src/repro`` is one function.  Its body lines are the
non-blank, non-comment lines after its docstring, without the lines of
functions nested in it (those count for themselves).  The report gives
reached and unreached functions and body lines, in total and per module.

Usage::

    python scripts/reach.py                  # the committed HEAD
    python scripts/reach.py --rev 9b9f39e    # any commit or tree
    python scripts/reach.py --list           # also name each unreached function

Exits 1 if an entry point fails (the figures are then still printed).
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Written into the recorder directory; imported at start-up by every
#: Python process whose ``PYTHONPATH`` leads with that directory.
RECORDER = '''\
import atexit, os, sys, tempfile, threading

_seen = set()


def _record(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    where = {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in _seen}
    fd, _ = tempfile.mkstemp(suffix=".reach", dir=os.environ["REACH_OUT"])
    with os.fdopen(fd, "w") as out:
        out.writelines(f"{path}\\t{line}\\n" for path, line in where)


atexit.register(_dump)
threading.setprofile(_record)
sys.setprofile(_record)
'''


@dataclass
class Function:
    module: str  # path relative to src/repro
    qualname: str
    first_line: int  # the code object's co_firstlineno
    body_lines: int


def entry_points(tree: Path) -> list[list[str]]:
    py = sys.executable
    examples = sorted(glob.glob("examples/*.py", root_dir=tree))
    return [
        *([py, example] for example in examples),
        [py, "scripts/bit_identity_smoke.py"],
        [py, "scripts/ci_smoke.py"],
        # pytest-benchmark's instrumentation pause clears sys.setprofile
        # around every timed call; with it disabled the call runs once,
        # recorded.
        [py, "-m", "pytest", "benchmarks", "--ignore=benchmarks/perf",
         "--benchmark-disable", "-q"],
        [py, "benchmarks/perf/run.py", "--selfcheck"],
        [py, "-m", "repro.bench", "fig5", "fig6", "fig7", "fig8", "fig9", "table5"],
    ]


def extract(rev: str, into: Path) -> None:
    into.mkdir()
    archive = into.parent / "tree.tar"
    subprocess.run(["git", "archive", f"--output={archive}", rev], cwd=REPO, check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(into)], check=True)


def record(tree: Path, scratch: Path) -> tuple[set[tuple[str, int]], list[str]]:
    """Run every entry point in ``tree``; return the reached code objects
    of ``src/repro`` as (module, first line) pairs, and the failed entries."""
    recorder, out = scratch / "recorder", scratch / "out"
    recorder.mkdir()
    out.mkdir()
    (recorder / "sitecustomize.py").write_text(RECORDER)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(recorder), str(tree / "src")]),
        PYTHONDONTWRITEBYTECODE="1",
        REACH_OUT=str(out),
    )
    failed = []
    for cmd in entry_points(tree):
        label = " ".join(Path(c).name if c == sys.executable else c for c in cmd)
        print(f"reach: running {label}", file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failed.append(label)
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
    src = tree / "src" / "repro"
    reached = set()
    for dump in out.glob("*.reach"):
        for row in dump.read_text().splitlines():
            path, line = row.rsplit("\t", 1)
            path = Path(path)
            if path.is_relative_to(src):
                reached.add((path.relative_to(src).as_posix(), int(line)))
    return reached, failed


def body_lines(node: ast.AST, source: list[str]) -> int:
    body = node.body
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if not body:
        return 0
    lines = set(range(body[0].lineno, node.end_lineno + 1))
    for inner in ast.walk(node):
        if inner is not node and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines -= set(range(first_line(inner), inner.end_lineno + 1))
    return sum(
        1 for n in lines
        if source[n - 1].strip() and not source[n - 1].lstrip().startswith("#")
    )


def first_line(node: ast.AST) -> int:
    """``co_firstlineno`` of a def: its first decorator's line, if any."""
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def functions(src: Path) -> list[Function]:
    found = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        module = path.relative_to(src).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append(Function(
                        module, prefix + child.name, first_line(child),
                        body_lines(child, source),
                    ))
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(text, str(path)), "")
    return found


def report(funcs: list[Function], reached: set[tuple[str, int]], listing: bool) -> None:
    per_module: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    unreached = []
    for f in funcs:
        row = per_module[f.module]
        hit = (f.module, f.first_line) in reached
        row[0] += hit
        row[1] += 1
        row[2] += f.body_lines if hit else 0
        row[3] += f.body_lines
        if not hit:
            unreached.append(f)
    n_hit = sum(r[0] for r in per_module.values())
    l_hit = sum(r[2] for r in per_module.values())
    n_all, l_all = len(funcs), sum(f.body_lines for f in funcs)
    print(f"reach functions: {n_hit} of {n_all} reached, {n_all - n_hit} unreached")
    print(f"reach function-body lines: {l_hit} of {l_all} reached, "
          f"{l_all - l_hit} unreached")
    print()
    print(f"{'module':34s} {'functions':>13s} {'body lines':>13s} {'unreached':>10s}")
    rows = sorted(per_module.items(), key=lambda kv: (kv[1][2] - kv[1][3], kv[0]))
    for module, (fh, fa, lh, la) in rows:
        print(f"{module:34s} {fh:6d} of {fa:<3d} {lh:6d} of {la:<4d} {la - lh:10d}")
    if listing:
        print()
        for f in sorted(unreached, key=lambda f: (f.module, f.first_line)):
            print(f"unreached {f.module}:{f.first_line} {f.qualname} ({f.body_lines} lines)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="commit or tree to measure (default HEAD)")
    parser.add_argument("--list", action="store_true", help="name every unreached function")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        scratch = Path(scratch).resolve()
        tree = scratch / "tree"
        extract(args.rev, tree)
        reached, failed = record(tree, scratch)
        report(functions(tree / "src" / "repro"), reached, args.list)
    for label in failed:
        print(f"reach: entry point failed: {label}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
