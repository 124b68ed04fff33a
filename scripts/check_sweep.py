#!/usr/bin/env python3
"""Check sweep: does some test fail when one ``raise`` in ``src/evenlat`` is deleted?

Each ``raise`` statement of the package is turned into ``pass``, one at a
time, in a copy of the repository, and a pytest selection runs on the
copy with ``-x``.  A mutation after which every test still passes is a
survivor: no test knows that its check fires.  The script prints every
survivor that is not on ``ALLOW`` and exits 1 when there is one, or when
some mutation could not be judged (pytest could not run, or it timed
out).  It also names the ``ALLOW`` entries that match no ``raise``.

    python scripts/check_sweep.py --workers 2
    python scripts/check_sweep.py -- tests/test_lattice.py tests/test_cli.py

The selection after ``--`` defaults to tier-1, ``tests`` and
``bench/tests``.  A module's own test file (``tests/test_<module>.py``,
or the one ``FIRST_TESTS`` names) runs first when the selection holds
it, which kills most mutations sooner and changes no verdict.  With full
tier-1, the 143 mutations took 22 minutes on two workers and 2 CPUs, so
the sweep is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "evenlat"
DEFAULT_SELECTION = ("tests", "bench/tests")
# the test file to run first for a module without a tests/test_<module>.py
FIRST_TESTS = {"serialize.py": "tests/test_cli.py"}
# a mutation that makes some test loop forever is reported, not waited on
TIMEOUT_S = 900

# (module, enclosing function, text of the raise) -> why no test makes it fire
ALLOW: dict[tuple[str, str, str], str] = {}


@dataclass(frozen=True)
class Mutation:
    module: str         # file name under PACKAGE
    line: int           # first line of the raise
    function: str       # qualified name of the enclosing function, or "<module>"
    source: str         # the raise, unparsed on one line
    start: int          # character offsets of the raise in the file
    end: int

    def allowed_by(self, key) -> bool:
        module, function, text = key
        return (module, function) == (self.module, self.function) and text in self.source


def _offsets(text: str) -> list[int]:
    """The character offset at which each line (1-based) starts."""
    starts = [0, 0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def find_raises(path: Path) -> list[Mutation]:
    # ast column offsets count UTF-8 bytes; sources here are ASCII, checked below
    text = path.read_text(encoding="utf-8")
    if not text.isascii():
        raise SystemExit(f"{path}: non-ASCII source; column offsets would be wrong")
    starts = _offsets(text)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise):
                found.append(
                    Mutation(
                        path.name,
                        child.lineno,
                        ".".join(scope) or "<module>",
                        ast.unparse(child),
                        starts[child.lineno] + child.col_offset,
                        starts[child.end_lineno] + child.end_col_offset,
                    )
                )
            visit(child, scope)

    visit(ast.parse(text), [])
    return sorted(found, key=lambda m: m.line)


def _copy_repo(dest: Path) -> None:
    shutil.copytree(
        REPO,
        dest,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"),
    )


def _selection(mutation: Mutation, selection) -> list[str]:
    own = FIRST_TESTS.get(mutation.module, f"tests/test_{Path(mutation.module).stem}.py")
    holds_own = any(own == s or own.startswith(s.rstrip("/") + "/") for s in selection)
    return [own, *selection] if holds_own and (REPO / own).exists() else list(selection)


def _pytest(copy: Path, selection) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def run_one(copy: Path, mutation: Mutation, selection) -> str:
    """'killed', 'survived', 'timeout' or 'error: ...' for one mutation in a copy."""
    path = copy / PACKAGE / mutation.module
    original = path.read_text(encoding="utf-8")
    path.write_text(original[: mutation.start] + "pass" + original[mutation.end:], encoding="utf-8")
    try:
        proc = _pytest(copy, _selection(mutation, selection))
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        path.write_text(original, encoding="utf-8")
    # 1: a test failed; 2: a test module failed to import
    if proc.returncode in (0, 1, 2):
        return "survived" if proc.returncode == 0 else "killed"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:] or [""]
    return f"error: pytest exit {proc.returncode}: {tail[0]}"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workers", type=int, default=1, help="parallel copies (default 1)")
    parser.add_argument("selection", nargs="*", help="pytest paths or node ids (default: tier-1)")
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    selection = tuple(args.selection) or DEFAULT_SELECTION

    mutations = [m for path in sorted((REPO / PACKAGE).glob("*.py")) for m in find_raises(path)]
    stale = [key for key in ALLOW if not any(m.allowed_by(key) for m in mutations)]
    with tempfile.TemporaryDirectory(prefix="check_sweep_") as tmp:
        copies: queue.Queue = queue.Queue()
        for k in range(args.workers):
            copy = Path(tmp) / f"copy{k}"
            _copy_repo(copy)
            copies.put(copy)
        # without a passing baseline every mutation would look killed
        baseline = _pytest(copy, selection)
        if baseline.returncode != 0:
            print(baseline.stdout[-2000:] + baseline.stderr[-2000:], file=sys.stderr)
            print("the selection fails without any mutation", file=sys.stderr)
            return 2
        done = []

        def judge(mutation):
            copy = copies.get()
            try:
                outcome = run_one(copy, mutation, selection)
            finally:
                copies.put(copy)
            done.append(mutation)
            print(f"[{len(done)}/{len(mutations)}] {mutation.module}:{mutation.line} {outcome}",
                  file=sys.stderr, flush=True)
            return outcome

        t0 = time.perf_counter()
        with ThreadPoolExecutor(args.workers) as pool:
            outcomes = list(pool.map(judge, mutations))
    elapsed = time.perf_counter() - t0

    per_module: dict[str, list[int]] = {}
    bad = 0
    for m, outcome in zip(mutations, outcomes):
        counts = per_module.setdefault(m.module, [0, 0])
        counts[1] += 1
        if outcome == "killed":
            continue
        allowed = outcome == "survived" and any(m.allowed_by(key) for key in ALLOW)
        counts[0] += outcome == "survived"
        if not allowed:
            bad += 1
            print(f"{outcome}: {m.module}:{m.line} {m.function}: {m.source}")
    for key in stale:
        print(f"STALE allow-list entry: {key}")
    print("survivors per module: " + ", ".join(
        f"{name} {s}/{n}" for name, (s, n) in sorted(per_module.items())
    ))
    total = sum(s for s, _ in per_module.values())
    print(
        f"{total} of {len(mutations)} mutations survived, {bad} outside the allow-list "
        f"or not judged; selection {' '.join(selection)}; {elapsed:.0f} s"
    )
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
