"""Operator and min/max mutation testing of the checker's core modules.

Each mutant makes one edit in `discharging`, `audit`, `lightedge`,
`oneplanar`, `graphio` or `embedding`: it swaps one comparison operator
(`<` and `<=`, `>` and `>=`, `==` and `!=`, `in` and `not in`) or the
name of one `min` or `max` call, and the tier-1 suite runs on it with
`-x`. A mutant the suite fails on is killed; one it passes survives. A
survivor must be listed in `tools/equivalent_mutants.txt`, which names
the mutants known to behave exactly as the original code does, each
with its reason. Every unlisted survivor is a gap in the tests, and the
run exits 1.

Mutants are keyed by module, enclosing function and the text of the
mutated expression (the original comparison or call and its mutated
form), not by line number, so the list survives edits elsewhere in a
module. A key that occurs more than once in one function gets a `#2`,
`#3`, ... suffix in source order.

Run it from the repository root as `python tools/mutants.py`. Two
workers each run the suite in their own copy of `src/`, `tests/` and
`README.md` in a temporary directory, without bytecode caches and with
an empty Hypothesis database per mutant, and each run may map at most
1 GiB of address space. A run of the 140 mutants took about five
minutes (288 s) on two cores of a Xeon VM with Python 3.11.
"""

from __future__ import annotations

import ast
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("discharging", "audit", "lightedge", "oneplanar", "graphio", "embedding")
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
# called builtins swapped by name
NAME_SWAP = {"min": "max", "max": "min"}
SUITE_TIMEOUT_S = 600
# address-space cap of every suite run: a mutant can make a face walk
# run forever, growing its walk list, and under the cap that run fails
# with MemoryError instead of filling the host's memory
SUITE_MEMORY_BYTES = 1 << 30
JOBS = 2


class Mutant(NamedTuple):
    key: str  # "module | function | original -> mutated"
    module: str
    source: str  # the whole mutated module


def _mutants_of(module: str) -> list[Mutant]:
    """Every mutant of one module, in source order. The mutated source
    differs from the original in one operator token or one called name
    only."""
    path = ROOT / "src" / "oneplane" / f"{module}.py"
    data = path.read_bytes()
    tree = ast.parse(data)
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    # (scope, original, mutated, start byte, end byte, replacement token)
    edits: list[tuple[str, str, str, int, int, bytes]] = []

    def compare_edits(scope: str, node: ast.Compare) -> None:
        for i, op in enumerate(node.ops):
            if type(op) not in SWAP:
                continue
            original = ast.unparse(node)
            node.ops[i] = SWAP[type(op)]()
            mutated = ast.unparse(node)
            node.ops[i] = op
            # byte offsets: the operator lies between its two operands
            left = node.left if i == 0 else node.comparators[i - 1]
            right = node.comparators[i]
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            hi = starts[right.lineno - 1] + right.col_offset
            (match,) = re.finditer(TOKEN[type(op)], data[lo:hi])
            edits.append(
                (scope, original, mutated, lo + match.start(), lo + match.end(), TEXT[SWAP[type(op)]])
            )

    def call_edit(scope: str, node: ast.Call) -> None:
        name = node.func
        if not (isinstance(name, ast.Name) and name.id in NAME_SWAP):
            return
        original = ast.unparse(node)
        name.id = NAME_SWAP[name.id]
        mutated = ast.unparse(node)
        name.id = NAME_SWAP[name.id]
        lo = starts[name.lineno - 1] + name.col_offset
        edits.append((scope, original, mutated, lo, lo + len(name.id), NAME_SWAP[name.id].encode()))

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if isinstance(child, ast.Compare):
                compare_edits(inner, child)
            elif isinstance(child, ast.Call):
                call_edit(inner, child)
            visit(child, inner)

    visit(tree, "<module>")
    mutants = []
    seen: dict[str, int] = {}
    for scope, original, mutated, lo, hi, token in edits:
        key = f"{module} | {scope} | {original} -> {mutated}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        source = data[:lo] + token + data[hi:]
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
    # tests/test_mutants.py checks this tool's list against the source it
    # mutates, not the package's behavior, so it is left out of each run
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    command.append("--ignore=tests/test_mutants.py")
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, timeout=SUITE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    # set here, so that every suite run inherits it
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (SUITE_MEMORY_BYTES, hard))
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
