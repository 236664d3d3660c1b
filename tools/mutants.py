"""Comparison-operator mutation testing of the checker's core modules.

Each mutant swaps one comparison operator in `discharging`, `audit`,
`lightedge` or `oneplanar` (`<` and `<=`, `>` and `>=`, `==` and `!=`,
`in` and `not in`), and the tier-1 suite runs on it with `-x`. A mutant
the suite fails on is killed; one it passes survives. A survivor must be
listed in `tools/equivalent_mutants.txt`, which names the mutants known
to behave exactly as the original code does, each with its reason.
Every unlisted survivor is a gap in the tests, and the run exits 1.

Mutants are keyed by module, enclosing function and comparison text
(the original comparison and its mutated form), not by line number, so
the list survives edits elsewhere in a module. A key that occurs more
than once in one function gets a `#2`, `#3`, ... suffix in source order.

Run it from the repository root as `python tools/mutants.py`. Two
workers each run the suite in their own copy of `src/`, `tests/` and
`README.md` in a temporary directory, without bytecode caches and with
an empty Hypothesis database per mutant. A run of the 116 mutants took
under five minutes on two cores of a Xeon VM with Python 3.11.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("discharging", "audit", "lightedge", "oneplanar")
EQUIVALENT = ROOT / "tools" / "equivalent_mutants.txt"
SWAP = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
# each operator's token, as it may appear between two operands (which
# may be parenthesized), and its text
TOKEN = {
    ast.Lt: rb"<(?!=)",
    ast.LtE: rb"<=",
    ast.Gt: rb">(?!=)",
    ast.GtE: rb">=",
    ast.Eq: rb"==",
    ast.NotEq: rb"!=",
    ast.In: rb"(?<![\w])in(?![\w])",
    ast.NotIn: rb"not\s+in(?![\w])",
}
TEXT = {
    ast.Lt: b"<",
    ast.LtE: b"<=",
    ast.Gt: b">",
    ast.GtE: b">=",
    ast.Eq: b"==",
    ast.NotEq: b"!=",
    ast.In: b"in",
    ast.NotIn: b"not in",
}
SUITE_TIMEOUT_S = 600
JOBS = 2


class Mutant(NamedTuple):
    key: str  # "module | function | original -> mutated"
    module: str
    source: str  # the whole mutated module


def _mutants_of(module: str) -> list[Mutant]:
    """Every mutant of one module, in source order. The mutated source
    differs from the original in the one operator token only."""
    path = ROOT / "src" / "oneplane" / f"{module}.py"
    data = path.read_bytes()
    tree = ast.parse(data)
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    sites: list[tuple[str, ast.Compare, int]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if isinstance(child, ast.Compare):
                sites.extend((inner, child, i) for i, op in enumerate(child.ops) if type(op) in SWAP)
            visit(child, inner)

    visit(tree, "<module>")
    mutants = []
    seen: dict[str, int] = {}
    for scope, node, i in sites:
        op = node.ops[i]
        original = ast.unparse(node)
        node.ops[i] = SWAP[type(op)]()
        mutated = ast.unparse(node)
        node.ops[i] = op
        key = f"{module} | {scope} | {original} -> {mutated}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        # byte offsets: the operator lies between its two operands
        left = node.left if i == 0 else node.comparators[i - 1]
        right = node.comparators[i]
        lo = starts[left.end_lineno - 1] + left.end_col_offset
        hi = starts[right.lineno - 1] + right.col_offset
        (match,) = re.finditer(TOKEN[type(op)], data[lo:hi])
        source = data[: lo + match.start()] + TEXT[SWAP[type(op)]] + data[lo + match.end() :]
        mutants.append(Mutant(key, module, source.decode("utf-8")))
    return mutants


def _equivalent_keys() -> set[str]:
    lines = EQUIVALENT.read_text(encoding="utf-8").splitlines()
    return {line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")}


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "README.md", dest / "README.md")


def _run_suite(tree: Path) -> str:
    """'passed', 'failed' or 'timeout' for tier-1 with -x in `tree`."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, timeout=SUITE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    mutants = [m for module in MODULES for m in _mutants_of(module)]
    equivalent = _equivalent_keys()

    with tempfile.TemporaryDirectory(prefix="oneplane-mutants-") as tmp:
        trees = [Path(tmp) / f"w{k}" for k in range(JOBS)]
        for tree in trees:
            _copy_tree(tree)
        if _run_suite(trees[0]) != "passed":
            print("mutants: the unmutated suite does not pass; nothing to measure", file=sys.stderr)
            return 2
        free = list(trees)

        def run(mutant: Mutant) -> str:
            tree = free.pop()
            target = tree / "src" / "oneplane" / f"{mutant.module}.py"
            original = target.read_text(encoding="utf-8")
            try:
                target.write_text(mutant.source, encoding="utf-8")
                return _run_suite(tree)
            finally:
                target.write_text(original, encoding="utf-8")
                free.append(tree)

        start = time.monotonic()
        with ThreadPoolExecutor(JOBS) as pool:
            outcomes = list(pool.map(run, mutants))

    survivors = [m.key for m, o in zip(mutants, outcomes) if o == "passed"]
    live = [k for k in survivors if k not in equivalent]
    generated = {m.key for m in mutants}
    stale = sorted(k for k in equivalent if k in generated and k not in survivors)
    for key, outcome in zip((m.key for m in mutants), outcomes):
        print(f"{outcome:8} {key}")
    print(
        f"mutants: {len(mutants)}, killed {len(mutants) - len(survivors)} "
        f"(timeouts {outcomes.count('timeout')}), survived {len(survivors)} "
        f"({len(survivors) - len(live)} listed as equivalent), "
        f"{time.monotonic() - start:.0f} s on {JOBS} workers"
    )
    for key in stale:
        print(f"note: listed as equivalent but killed: {key}")
    for key in live:
        print(f"LIVE: {key}")
    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main())
