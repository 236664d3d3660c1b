"""Benchmark of the oneplane checker, end to end and per layer.

    python3 perfbench/run.py --workload quad-large --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and the independent ledger enumerator from `tests/`. It writes
its input files to a fresh directory under `perfbench/_work/`, runs
there (so the reports embed the same relative paths on every run) and
removes the directory at the end. Traced runs also write their spans to
`perfbench/_traces/`.

The unit of work is a check: one drawing file run in-process through
`oneplane.cli.main` as `light-edges IN --format json`, then
`discharge IN --format json --ledger L`, then `audit IN --format json`,
with stdout captured in memory. The load is a closed loop with one
client in one process: checks run back to back over the workload's
drawings, whole passes at a time, until `--seconds` of check time have
been spent. Outputs are checked between checks, with the clock stopped.
Every reported time is scaled to a reference host speed (`HostSpeed`);
perfbench/README.md defines every metric.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
untraced loop, then two traced passes (set-up generation plus one check
per drawing), and prints the per-layer metrics, per check. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
DIGESTS = HERE / "digests.json"
SETUP_ROUNDS = 9
MODULES = ("cli", "generators", "graphio", "oneplanar")


def setup_round(workload: str, seed: int) -> tuple[float, SimpleNamespace, list[str]]:
    """Import the package afresh, generate the workload's drawings and
    write them with `graphio.dumps`. Returns (seconds, modules, files)."""
    for name in [n for n in sys.modules if n == "oneplane" or n.startswith("oneplane.")]:
        del sys.modules[name]
    start = perf_counter()
    op = SimpleNamespace(**{m: importlib.import_module(f"oneplane.{m}") for m in MODULES})
    files = write_drawings(op, workload, seed)
    return perf_counter() - start, op, files


def write_drawings(op: SimpleNamespace, workload: str, seed: int) -> list[str]:
    files = []
    for stem, g in inputs.drawings(op, workload, seed):
        Path(f"{stem}.json").write_text(op.graphio.dumps(g), encoding="utf-8")
        files.append(f"{stem}.json")
    return files


def run_check(main, path: str) -> dict[str, tuple]:
    """The three CLI commands on one file: command -> (exit, stdout, stderr)."""
    ledger = path.removesuffix(".json") + ".ledger"
    outputs = {}
    for argv in (
        ["light-edges", path, "--format", "json"],
        ["discharge", path, "--format", "json", "--ledger", ledger],
        ["audit", path, "--format", "json"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except Exception:  # a crash is a failed check, not a crashed benchmark
                rc = None
                traceback.print_exc(file=err)
        outputs[argv[0]] = (rc, out.getvalue(), err.getvalue())
    return outputs


class Verifier:
    """Checks every check's outputs: against the expectations of
    `checks.evaluate`, against the naive enumerator's ledger, against the
    first check of the same drawing and, at the default seed, against the
    stored digests."""

    def __init__(self, files: list[str], stored: dict | None):
        self.drawings = {f: checks.Drawing.parse(Path(f).read_text(encoding="utf-8")) for f in files}
        self.stored = stored
        self.first: dict[str, checks.Outcome] = {}
        self.attempted = 0
        self.failed = 0
        self.deviations: list[str] = []
        self.oracle: dict[str, str] = {}
        self.compared = 0

    def record(self, path: str, outputs: dict[str, tuple]) -> checks.Outcome:
        stem = path.removesuffix(".json")
        ledger = Path(f"{stem}.ledger")
        text = ledger.read_text(encoding="utf-8") if ledger.exists() else None
        ledger.unlink(missing_ok=True)
        try:
            outcome = checks.evaluate(self.drawings[path], outputs, text)
        except (KeyError, TypeError, AttributeError, ValueError) as err:  # malformed reports
            outcome = checks.Outcome([f"unexpected report shape: {err!r}"], {})
        first = self.first.setdefault(path, outcome)
        if outcome.digests != first.digests:
            outcome.deviations.append("output bytes differ from the first check of this drawing")
        if self.stored is not None and self.stored.get(stem) != outcome.digests:
            outcome.deviations.append(f"output digests differ from {DIGESTS.name}")
        if outcome.ledger_multiset is not None:
            if path not in self.oracle:
                self.oracle[path] = checks.oracle_digest(self.drawings[path])
            self.compared += 1
            if outcome.ledger_multiset != self.oracle[path]:
                outcome.deviations.append("ledger differs from the naive enumerator")
        self.attempted += 1
        if outcome.deviations:
            self.failed += 1
            self.deviations.extend(f"{path}: {d}" for d in outcome.deviations)
        return outcome


# Mean time of the reference work on a quiet core of the host the
# benchmark was tuned on (Intel Xeon VM, Python 3.11).
REFERENCE_S = 0.0022
REFERENCE_EVERY_S = 0.25


def reference_work() -> Fraction:
    """A fixed piece of pure-Python work (dict, tuple and Fraction
    operations, as in the checker) that shares no code with `oneplane`."""
    table = {(i, i ^ 5): Fraction(i, 7) for i in range(1500)}
    return sum((v for (a, _), v in table.items() if a & 1), Fraction(0))


class HostSpeed:
    """The mean time of `reference_work`, sampled evenly over check time.

    The host shares its cores with other tenants, which slow all work in
    a process alike, by up to 2x, in phases lasting from under a second
    to minutes. Sampled after every REFERENCE_EVERY_S of check time (and
    before each set-up round), the reference sees on average the same
    slowdown as the checks, so every time the benchmark reports is
    multiplied by `scale`: it reads as the time on a host where the
    reference work takes REFERENCE_S on average.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0
        self._due = 0.0

    def sample(self) -> None:
        start = perf_counter()
        reference_work()
        self.samples.append(perf_counter() - start)

    def account(self, check_seconds: float) -> None:
        self._spent += check_seconds
        while self._spent >= self._due:
            self.sample()
            self._due += REFERENCE_EVERY_S

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)


def timed_loop(main, files: list[str], seconds: float, verifier: Verifier, host: HostSpeed):
    """Whole passes over the files until `seconds` of check time are spent.
    Returns, per pass, the wall time of each file's check."""
    passes: list[list[float]] = []
    while sum(map(sum, passes)) < seconds:
        gc.collect()
        times = []
        for path in files:
            start = perf_counter()
            outputs = run_check(main, path)
            times.append(perf_counter() - start)
            host.account(times[-1])
            verifier.record(path, outputs)
        passes.append(times)
    return passes


def traced_pass(op: SimpleNamespace, workload: str, seed: int, verifier: Verifier, host: HostSpeed):
    """One traced pass: set-up generation, then one check per drawing.
    Returns (recorder, per-check seconds, exact counts)."""
    recorder = spans.Recorder()
    totals: dict[str, float] = {}
    times = []
    gc.collect()
    cli_main = {cmd: recorder.wrap(f"cli.{cmd}", op.cli.main) for cmd in checks.COMMANDS}
    with spans.patched(recorder):
        files = write_drawings(op, workload, seed)
        for path in files:
            recorder.check = path
            start = perf_counter()
            outputs = run_check(lambda argv: cli_main[argv[0]](argv), path)
            times.append(perf_counter() - start)
            host.account(times[-1])
            outcome = verifier.record(path, outputs)
            for key, value in {**verifier.drawings[path].shape(), **(outcome.counts or {})}.items():
                name = key if "." in key else f"drawing.{key}"
                totals[name] = totals.get(name, 0) + value
    special = {}
    for span in recorder.spans:
        if span[spans.NAME] == "discharging.find_special_faces":
            special.setdefault(span[spans.CHECK], span[spans.SIZE])
    totals["discharging.special_faces"] = sum(special.values())
    return recorder, times, totals


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


SETUP_SPANS = ("graphio.dumps", "generators.random_oneplane")


def layer_metrics(
    passes, cps_untraced: float, scale: float, problems: list[str]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from two traced passes, per check, with times
    multiplied by `scale`. Span calls and exact counts must repeat
    exactly between the passes; any difference is added to `problems`."""
    (rec_a, times_a, totals_a), (rec_b, times_b, totals_b) = passes
    if totals_a != totals_b:
        problems.append(f"exact counts differ between traced passes: {totals_a} != {totals_b}")
    summaries = []
    for setup in (True, False):
        a, b = rec_a.summary(setup), rec_b.summary(setup)
        calls_a, calls_b = ({k: v["calls"] for k, v in x.items()} for x in (a, b))
        if calls_a != calls_b:
            problems.append(f"span calls differ between traced passes: {calls_a} != {calls_b}")
        summaries.append((a, b))
    n_checks = len(times_a) + len(times_b)
    ms = 1000 * scale / n_checks
    empty = {"calls": 0, "total": 0.0, "self": 0.0}
    metrics: dict[str, tuple[float, str]] = {}
    for name in [*spans.TARGETS, *(f"cli.{c}" for c in checks.COMMANDS)]:
        parts = [s.get(name, empty) for s in summaries[0 if name in SETUP_SPANS else 1]]
        metrics[f"{name}.calls"] = (sum(p["calls"] for p in parts) / n_checks, "count")
        metrics[f"{name}.total_ms"] = (ms * sum(p["total"] for p in parts), "ms")
        metrics[f"{name}.self_ms"] = (ms * sum(p["self"] for p in parts), "ms")
    for key in sorted(totals_a):
        metrics[key] = (totals_a[key], "count")
    cps_traced = n_checks / (sum(times_a) + sum(times_b))
    metrics["trace.overhead_ratio"] = (cps_traced / cps_untraced, "1")
    return metrics


def write_spans(passes, workload: str, seed: int) -> None:
    out = HERE / "_traces"
    out.mkdir(exist_ok=True)
    with open(out / f"{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for n, (recorder, _, _) in enumerate(passes):
            for span in recorder.spans:
                fh.write(json.dumps({"pass": n, "name": span[0], "start": span[1], "end": span[2],
                                     "parent": span[3], "check": span[4], "size": span[5]}) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool, write_digests: bool) -> dict:
    host = HostSpeed()
    rounds = []
    for _ in range(SETUP_ROUNDS):
        host.sample()
        rounds.append(setup_round(workload, seed))
    setup_rounds = [r[0] for r in rounds]
    _, op, files = rounds[-1]
    del rounds

    stored = None
    if seed == DEFAULT_SEED and not write_digests and DIGESTS.exists():
        stored = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
        if stored is None:
            raise SystemExit(f"{DIGESTS.name} has no entry for {workload}")
    verifier = Verifier(files, stored)
    loop = timed_loop(op.cli.main, files, seconds, verifier, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [t for p in loop for t in p]
    cps = len(times) / sum(times)
    # The tail is taken over inputs, not over repeats of one input: on a
    # shared host the slowest repeats of a drawing measure the host.
    per_drawing = [statistics.median(column) for column in zip(*loop)]

    passes = []
    if trace:
        passes = [traced_pass(op, workload, seed, verifier, host) for _ in range(2)]
    compared = verifier.compared
    if compared == 0:
        verifier.deviations.append("no ledger was compared with the naive enumerator")

    if write_digests:
        data = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        data[workload] = {p.removesuffix(".json"): o.digests for p, o in sorted(verifier.first.items())}
        DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if trace:
        metrics = layer_metrics(passes, cps, host.scale, verifier.deviations)
        write_spans(passes, workload, seed)
        metrics["checks.failed_ratio"] = (verifier.failed / verifier.attempted, "1")
        metrics["oracle.ledgers_compared"] = (compared, "count")
    else:
        metrics = {
            "check_p50_ms": (1000 * host.scale * statistics.median(times), "ms"),
            "check_p95_ms": (1000 * host.scale * percentile(per_drawing, 95), "ms"),
            "checks_per_s": (cps / host.scale, "1/s"),
            "setup_s": (host.scale * statistics.median(setup_rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"{workload} seed {seed}: {len(times)} checks, {len(loop)} passes over {len(files)} "
          f"drawings in {sum(times):.2f} s (all checks: min {min(times):.4f} s, median "
          f"{statistics.median(times):.4f} s, max {max(times):.4f} s; {cps:.5g}/s); "
          f"setup median of {SETUP_ROUNDS} rounds {sorted(round(r, 4) for r in setup_rounds)} s; "
          f"{compared} ledgers compared with the naive enumerator; reference work: fastest "
          f"{min(host.samples) * 1000:.4f} ms, median {statistics.median(host.samples) * 1000:.4f} ms, "
          f"mean {statistics.fmean(host.samples) * 1000:.4f} ms "
          f"of {len(host.samples)}, so times are scaled by {host.scale:.4f}")
    for line in verifier.deviations[:20]:
        print(f"DEVIATION {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not verifier.deviations,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests",
        action="store_true",
        help=f"record this run's output digests in {DIGESTS.name} (seed {DEFAULT_SEED} only)",
    )
    args = parser.parse_args(argv)
    if args.write_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--write-digests needs --seed {DEFAULT_SEED}")

    missing = [p for p in ("src/oneplane/cli.py", "tests/naive_oracle.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not in a oneplane source checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.write_digests)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
        with contextlib.suppress(OSError):  # another run may still be using it
            work_root.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
